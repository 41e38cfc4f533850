//! MANA configuration: which virtual-id design to use, how to compute ggids, how
//! upper↔lower crossings are costed, and how checkpoint images reach storage.

use serde::{Deserialize, Serialize};
use split_proc::crossing::CrossingMode;

pub use ckpt_store::StoragePolicy;

/// Which virtual-id data structure the wrapper layer uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum VirtIdMode {
    /// The pre-paper production design (paper §4.1): one string-keyed associative map
    /// per MPI object type, `int`-sized virtual ids, and separate side tables for any
    /// metadata. Only sound when the lower half's constants are stable integers, i.e.
    /// the MPICH family — attempting to use it with Open MPI or ExaMPI fails, which is
    /// exactly the limitation that motivated the new design.
    LegacyMaps,
    /// The new implementation-oblivious design (paper §4.2): one unified table of
    /// descriptor structs indexed by a 32-bit virtual id that embeds the kind tag and
    /// ggid/index, with all per-object metadata stored inline in the descriptor.
    UnifiedTable,
}

impl VirtIdMode {
    /// Short label used by the benchmark harness ("MANA" vs "MANA+virtId").
    pub fn label(self) -> &'static str {
        match self {
            VirtIdMode::LegacyMaps => "MANA",
            VirtIdMode::UnifiedTable => "MANA+virtId",
        }
    }
}

/// When the ggid (global group id) of a new communicator is computed (paper §4.2, §9).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum GgidPolicy {
    /// Compute the ggid as soon as the communicator is created (the paper's current
    /// choice). Costs a hash of the membership per creation — noticeable for codes
    /// that create and free communicators in a loop.
    Eager,
    /// Defer computing the ggid until it is first needed (checkpoint time).
    Lazy,
    /// Compute eagerly only for communicators at most this many members; defer larger
    /// ones. A middle ground the paper's future-work section contemplates.
    Hybrid {
        /// Membership size at or below which the ggid is computed eagerly.
        eager_up_to: usize,
    },
}

impl GgidPolicy {
    /// Whether a communicator of `members` ranks gets its ggid computed at creation.
    pub fn eager_for(&self, members: usize) -> bool {
        match self {
            GgidPolicy::Eager => true,
            GgidPolicy::Lazy => false,
            GgidPolicy::Hybrid { eager_up_to } => members <= *eager_up_to,
        }
    }
}

/// Per-rank MANA configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ManaConfig {
    /// Virtual-id data structure.
    pub virtid_mode: VirtIdMode,
    /// ggid computation policy.
    pub ggid_policy: GgidPolicy,
    /// The `fs`-register switching mechanism available on the host (used only for
    /// overhead accounting; the simulation's correctness does not depend on it).
    pub crossing_mode: CrossingMode,
    /// How [`ManaRank::checkpoint`] writes this rank's images to a
    /// [`ckpt_store::CheckpointStorage`]: the legacy flat image (the paper's baseline)
    /// or the incremental content-addressed engine, optionally compressed.
    ///
    /// [`ManaRank::checkpoint`]: crate::runtime::ManaRank::checkpoint
    pub storage: StoragePolicy,
}

impl Default for ManaConfig {
    fn default() -> Self {
        ManaConfig {
            virtid_mode: VirtIdMode::UnifiedTable,
            ggid_policy: GgidPolicy::Eager,
            crossing_mode: CrossingMode::Fsgsbase,
            storage: StoragePolicy::FullImage,
        }
    }
}

impl ManaConfig {
    /// The new-design configuration (unified table, eager ggid).
    pub fn new_design() -> Self {
        Self::default()
    }

    /// The legacy-design configuration (string-keyed per-type maps).
    pub fn legacy_design() -> Self {
        ManaConfig {
            virtid_mode: VirtIdMode::LegacyMaps,
            ..Self::default()
        }
    }

    /// Same configuration but with the given crossing mode.
    pub fn with_crossing(mut self, mode: CrossingMode) -> Self {
        self.crossing_mode = mode;
        self
    }

    /// Same configuration but with the given ggid policy.
    pub fn with_ggid(mut self, policy: GgidPolicy) -> Self {
        self.ggid_policy = policy;
        self
    }

    /// Same configuration but with the given checkpoint storage policy.
    pub fn with_storage(mut self, policy: StoragePolicy) -> Self {
        self.storage = policy;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels() {
        assert_eq!(VirtIdMode::LegacyMaps.label(), "MANA");
        assert_eq!(VirtIdMode::UnifiedTable.label(), "MANA+virtId");
    }

    #[test]
    fn ggid_policy_thresholds() {
        assert!(GgidPolicy::Eager.eager_for(1_000_000));
        assert!(!GgidPolicy::Lazy.eager_for(1));
        let hybrid = GgidPolicy::Hybrid { eager_up_to: 64 };
        assert!(hybrid.eager_for(64));
        assert!(!hybrid.eager_for(65));
    }

    #[test]
    fn builders() {
        let config = ManaConfig::legacy_design()
            .with_crossing(CrossingMode::Prctl)
            .with_ggid(GgidPolicy::Lazy)
            .with_storage(StoragePolicy::IncrementalCompressed);
        assert_eq!(config.virtid_mode, VirtIdMode::LegacyMaps);
        assert_eq!(config.crossing_mode, CrossingMode::Prctl);
        assert_eq!(config.ggid_policy, GgidPolicy::Lazy);
        assert_eq!(config.storage, StoragePolicy::IncrementalCompressed);
        assert_eq!(ManaConfig::default().virtid_mode, VirtIdMode::UnifiedTable);
        assert_eq!(ManaConfig::default().storage, StoragePolicy::FullImage);
    }
}
