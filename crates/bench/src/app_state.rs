//! The proxy applications' upper-half layout, read out of real checkpoint images.
//!
//! Each app runs the codec corpus's small world (the CI scale) through the full
//! MANA stack and checkpoints mid-run. Per app the row reports the JSON state
//! header's bytes, the lattice region's bytes and the element count the header
//! records. All three are deterministic, so the gate is exact: **every lattice is
//! stored raw, 8 bytes per element, next to a header of at most
//! [`StateLayout::MAX_HEADER_BYTES`]** — a regression to a text-encoded lattice
//! fails it.

use mana_apps::{AppId, StateLayout};
use serde::{Deserialize, Serialize};

/// One app's state layout.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AppStateRow {
    /// Application name.
    pub app: String,
    /// Bytes of rank 0's JSON state header.
    pub header_bytes: usize,
    /// Bytes of rank 0's lattice region.
    pub lattice_bytes: usize,
    /// Lattice elements rank 0's header records.
    pub elements: usize,
    /// Whether every rank's lattice is 8 bytes per element next to a small header.
    pub raw: bool,
}

/// The corpus-wide layout table and its gate verdict.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AppStateReport {
    /// Per-app rows.
    pub rows: Vec<AppStateRow>,
    /// Largest header the gate allows, bytes.
    pub max_header_bytes: usize,
    /// Whether every app's lattice is raw (the gate).
    pub pass: bool,
}

/// Checkpoint every proxy app at the CI scale and measure its state layout.
pub fn measure_app_state() -> AppStateReport {
    let rows: Vec<AppStateRow> = AppId::ALL
        .iter()
        .enumerate()
        .map(|(index, &app)| {
            let layouts: Vec<StateLayout> =
                crate::compression::checkpoint_app(app, 9_500 + index as u64)
                    .iter()
                    .map(|image| StateLayout::of(&image.upper_half, app).expect("state layout"))
                    .collect();
            AppStateRow {
                app: app.name().to_string(),
                header_bytes: layouts[0].header_bytes,
                lattice_bytes: layouts[0].lattice_bytes,
                elements: layouts[0].elements,
                raw: layouts.iter().all(StateLayout::is_raw),
            }
        })
        .collect();
    let pass = rows.iter().all(|r| r.raw);
    AppStateReport {
        rows,
        max_header_bytes: StateLayout::MAX_HEADER_BYTES,
        pass,
    }
}

/// Render an already-measured layout table as an aligned text note.
pub fn app_state_note_from(report: &AppStateReport) -> String {
    let mut note = format!(
        "== Upper-half app state: JSON header + raw f64 lattice, rank 0 ==\n\
         {:<8} {:>10} {:>12} {:>10} {:>6}\n",
        "app", "header B", "lattice B", "elements", "raw"
    );
    for row in &report.rows {
        note.push_str(&format!(
            "{:<8} {:>10} {:>12} {:>10} {:>6}\n",
            row.app,
            row.header_bytes,
            row.lattice_bytes,
            row.elements,
            if row.raw { "yes" } else { "NO" }
        ));
    }
    note.push_str(&format!(
        "every lattice 8 B/element, every header ≤ {} B: {}\n",
        report.max_header_bytes,
        if report.pass { "PASS" } else { "FAIL" }
    ));
    note
}

/// Measure the layouts and render the note.
pub fn app_state_note() -> String {
    app_state_note_from(&measure_app_state())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_app_stores_a_raw_lattice_and_renders() {
        let report = measure_app_state();
        assert!(report.pass, "a lattice is not raw: {report:?}");
        assert_eq!(report.rows.len(), AppId::ALL.len());
        for row in &report.rows {
            assert_eq!(row.lattice_bytes, 8 * row.elements, "{row:?}");
            assert!(row.elements > 0);
        }
        let note = app_state_note_from(&report);
        assert!(note.contains("PASS"));
    }
}
