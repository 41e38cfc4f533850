//! Checkpoint-time drain bench: how long the Iprobe/Recv drain loop takes as a
//! function of how many point-to-point messages are in flight when the checkpoint
//! request arrives.

use ckpt_store::CheckpointStorage;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mana::{ManaConfig, ManaRank};
use mpi_model::api::MpiImplementationFactory;
use mpi_model::constants::PredefinedObject;
use mpi_model::datatype::PrimitiveType;
use mpi_model::op::UserFunctionRegistry;
use parking_lot::RwLock;
use std::hint::black_box;
use std::sync::Arc;

/// Two ranks; rank 0 fires `inflight` messages that rank 1 never receives before the
/// collective checkpoint. Returns the number of messages rank 1 buffered.
fn checkpoint_with_inflight(inflight: usize) -> usize {
    let registry = Arc::new(RwLock::new(UserFunctionRegistry::new()));
    let storage = CheckpointStorage::unmetered();
    let lowers = mpich_sim::MpichFactory::mpich()
        .launch(2, registry.clone(), 1)
        .unwrap();
    let handles: Vec<_> = lowers
        .into_iter()
        .map(|lower| {
            let registry = registry.clone();
            let storage = storage.clone();
            std::thread::spawn(move || {
                let mut rank = ManaRank::new(lower, ManaConfig::new_design(), registry).unwrap();
                let world = rank.world().unwrap();
                let byte = rank
                    .constant(PredefinedObject::Datatype(PrimitiveType::Byte))
                    .unwrap();
                if rank.world_rank() == 0 {
                    for i in 0..inflight {
                        rank.send(&[i as u8; 64], byte, 1, 3, world).unwrap();
                    }
                }
                rank.checkpoint(&storage).unwrap();
                rank.buffered_messages()
            })
        })
        .collect();
    handles
        .into_iter()
        .map(|h| h.join().unwrap())
        .max()
        .unwrap()
}

fn bench_drain(c: &mut Criterion) {
    let mut group = c.benchmark_group("checkpoint_drain");
    group.sample_size(10);
    for inflight in [0usize, 16, 128] {
        group.bench_with_input(
            BenchmarkId::from_parameter(inflight),
            &inflight,
            |b, &inflight| {
                b.iter(|| {
                    let buffered = checkpoint_with_inflight(inflight);
                    assert_eq!(buffered, inflight);
                    black_box(buffered)
                })
            },
        );
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default();
    targets = bench_drain
}
criterion_main!(benches);
