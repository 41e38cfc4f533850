//! Table 3 companion bench: building and encoding checkpoint images of increasing
//! per-rank state size, the NFSv3 write-time model at the paper's image sizes, and
//! the `ckpt-store` engine's full vs incremental vs incremental+compressed write
//! paths at 1% / 10% / 100% dirty regions.

use ckpt_store::{CheckpointStorage, StoragePolicy, StoreConfig};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use mana_apps::workloads::single_node_workloads;
use split_proc::address_space::UpperHalfSpace;
use split_proc::image::{CheckpointImage, ImageMetadata};
use std::hint::black_box;

fn image_with(bytes: usize) -> CheckpointImage {
    let mut upper = UpperHalfSpace::new();
    upper.map_region("app.lattice", vec![0x5Au8; bytes]);
    upper.map_region("mana.descriptors", vec![0x11u8; 4096]);
    CheckpointImage::new(
        ImageMetadata {
            rank: 0,
            world_size: 1,
            generation: 0,
            implementation: "mpich".into(),
        },
        upper,
    )
}

fn bench_table3(c: &mut Criterion) {
    let mut group = c.benchmark_group("checkpoint_image_encode");
    for kb in [64usize, 512, 4096] {
        let image = image_with(kb * 1024);
        group.throughput(Throughput::Bytes((kb * 1024) as u64));
        group.bench_with_input(BenchmarkId::from_parameter(kb), &image, |b, image| {
            b.iter(|| black_box(image.encode().len()))
        });
    }
    group.finish();

    let mut group = c.benchmark_group("checkpoint_store_write");
    let storage = CheckpointStorage::with_model(StoreConfig::nfs_discovery());
    for kb in [64usize, 1024] {
        let image = image_with(kb * 1024);
        group.bench_with_input(BenchmarkId::from_parameter(kb), &image, |b, image| {
            b.iter(|| black_box(storage.write_image(StoragePolicy::FullImage, image)))
        });
    }
    group.finish();

    // The Table 3 model itself (pure arithmetic, but part of the reproduction surface).
    let mut group = c.benchmark_group("table3_write_time_model");
    let config = StoreConfig::nfs_discovery();
    for spec in single_node_workloads() {
        group.bench_with_input(
            BenchmarkId::from_parameter(spec.app.name()),
            &spec.ckpt_mb_per_rank,
            |b, &mb| b.iter(|| black_box(config.write_time_s(mb))),
        );
    }
    group.finish();

    bench_ckpt_store(c);
}

/// A 4 MiB upper half of 64 × 64 KiB regions with mildly compressible content.
fn engine_upper() -> UpperHalfSpace {
    const REGIONS: usize = 64;
    const REGION_BYTES: usize = 64 * 1024;
    let mut upper = UpperHalfSpace::new();
    for r in 0..REGIONS {
        let data: Vec<u8> = (0..REGION_BYTES)
            .map(|i| {
                if i % 5 == 0 {
                    (i.wrapping_mul(2654435761) >> 7) as u8
                } else {
                    (r % 13) as u8
                }
            })
            .collect();
        upper.map_region(format!("app.region{r:02}"), data);
    }
    upper
}

fn engine_image(generation: u64, upper: &UpperHalfSpace) -> CheckpointImage {
    CheckpointImage::new(
        ImageMetadata {
            rank: 0,
            world_size: 1,
            generation,
            implementation: "mpich".into(),
        },
        upper.clone(),
    )
}

/// The new-subsystem rows: encode generation G+1 with the given fraction of the
/// regions dirtied since generation G, under each storage policy. Throughput is the
/// *logical* image size, so faster policies show proportionally higher MiB/s for the
/// same logical checkpoint.
fn bench_ckpt_store(c: &mut Criterion) {
    let base = engine_upper();
    let logical = base.total_bytes();

    let mut group = c.benchmark_group("ckpt_store_generation_write");
    group.sample_size(10);
    group.throughput(Throughput::Bytes(logical as u64));
    for policy in [
        StoragePolicy::FullImage,
        StoragePolicy::Incremental,
        StoragePolicy::IncrementalCompressed,
    ] {
        for dirty_percent in [1usize, 10, 100] {
            let dirty_regions = (64 * dirty_percent / 100).max(1);
            group.bench_with_input(
                BenchmarkId::new(policy.label(), format!("{dirty_percent}pct_dirty")),
                &dirty_regions,
                |b, &dirty_regions| {
                    // Seed generation 0 once; each iteration writes one more
                    // generation with `dirty_regions` regions touched since the last.
                    let storage = CheckpointStorage::unmetered();
                    let mut upper = base.clone();
                    storage.write_image(policy, &engine_image(0, &upper));
                    upper.mark_clean();
                    upper.advance_epoch();
                    let mut generation = 1u64;
                    b.iter(|| {
                        for r in 0..dirty_regions {
                            let region = format!("app.region{r:02}");
                            let cell = (generation as usize * 31 + r) % (64 * 1024);
                            upper.region_mut(&region).unwrap()[cell] ^= 0xFF;
                        }
                        let report = storage.write_image(policy, &engine_image(generation, &upper));
                        upper.mark_clean();
                        upper.advance_epoch();
                        generation += 1;
                        // Keep the store bounded across iterations.
                        if generation.is_multiple_of(32) {
                            storage.prune_before(generation - 2);
                        }
                        black_box(report.written_bytes)
                    })
                },
            );
        }
    }
    group.finish();

    // The coordinated-checkpoint concurrency comparison: 8 ranks writing one
    // generation in parallel through the sharded store vs the serialized
    // whole-write-lock baseline of the pre-shard engine.
    let mut group = c.benchmark_group("ckpt_store_parallel_generation_write");
    group.sample_size(10);
    group.bench_function("serialized_baseline", |b| {
        b.iter(|| {
            black_box(mana_bench::measure_parallel_checkpoint(
                ckpt_store::DEFAULT_SHARD_COUNT,
                true,
            ))
        })
    });
    group.bench_function("sharded_parallel", |b| {
        b.iter(|| {
            black_box(mana_bench::measure_parallel_checkpoint(
                ckpt_store::DEFAULT_SHARD_COUNT,
                false,
            ))
        })
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_table3
}
criterion_main!(benches);
