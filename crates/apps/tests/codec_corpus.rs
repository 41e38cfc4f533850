//! Codec acceptance tests over the real checkpoint corpus: every proxy application's
//! checkpoint image must survive the LZ codec bit-identically, corrupted or truncated
//! streams must never decode silently into a valid image, incompressible content must
//! fall back to stored-raw framing, and images written before the codec switch
//! (RLE + FNV-1a, version-1 manifests) must restore bit-identically under the new
//! default configuration — including through an elastic resize.

#[path = "../../ckpt-store/tests/support/seed_lz.rs"]
mod seed_lz;

use ckpt_store::chunk::for_each_chunk;
use ckpt_store::codec::{lz_compress, lz_decompress};
use ckpt_store::{CheckpointStorage, Digest, StorageConfig, StoragePolicy, DEFAULT_CHUNK_SIZE};
use elastic::{resize_job_from_storage, RemapPolicy};
use mana::{ManaConfig, ManaRank, Session};
use mana_apps::{
    job_checksum, run_app, run_app_elastic, AppId, ElasticReport, RunConfig, SkeletonRepartition,
};
use mpi_model::api::MpiImplementationFactory;
use mpi_model::op::UserFunctionRegistry;
use mpich_sim::MpichFactory;
use parking_lot::RwLock;
use split_proc::image::CheckpointImage;
use std::sync::Arc;

type Registry = Arc<RwLock<UserFunctionRegistry>>;

const APPS: [AppId; 6] = [
    AppId::CoMd,
    AppId::Hpcg,
    AppId::Lammps,
    AppId::Lulesh,
    AppId::Sw4,
    AppId::Vasp,
];
const WORLD: usize = 2;
const ITERATIONS: u64 = 3;
const CKPT_AT: u64 = 2;
const SCALE: f64 = 2e-7;

fn registry() -> Registry {
    Arc::new(RwLock::new(UserFunctionRegistry::new()))
}

fn run_config(storage: Option<CheckpointStorage>) -> RunConfig {
    RunConfig {
        iterations: ITERATIONS,
        state_scale: SCALE,
        checkpoint_at: storage.as_ref().map(|_| CKPT_AT),
        store: None,
        storage,
    }
}

/// Run `app` on a fresh `WORLD`-rank world, checkpointing into `storage` through the
/// compressing policy, and return the checkpointed images read back from the store.
fn checkpoint_app(
    app: AppId,
    storage: &CheckpointStorage,
    session_id: u64,
) -> Vec<CheckpointImage> {
    let registry = registry();
    let lowers = MpichFactory::mpich()
        .launch(WORLD, registry.clone(), session_id)
        .unwrap();
    let handles: Vec<_> = lowers
        .into_iter()
        .map(|lower| {
            let registry = registry.clone();
            let config = run_config(Some(storage.clone()));
            std::thread::spawn(move || {
                let mana_config =
                    ManaConfig::new_design().with_storage(StoragePolicy::IncrementalCompressed);
                let rank = ManaRank::new(lower, mana_config, registry).unwrap();
                let mut session = Session::new(rank);
                run_app(app, &mut session, &config).unwrap()
            })
        })
        .collect();
    for handle in handles {
        handle.join().unwrap();
    }
    let generation = *storage
        .generations()
        .last()
        .expect("the run checkpointed at least once");
    (0..WORLD)
        .map(|rank| storage.read(generation, rank as i32).unwrap())
        .collect()
}

/// The images of every proxy app, each checkpointed into its own store under
/// `config`. Returned together with the store that holds them.
fn corpus(config: StorageConfig) -> Vec<(AppId, CheckpointStorage, Vec<CheckpointImage>)> {
    APPS.iter()
        .enumerate()
        .map(|(index, &app)| {
            let storage = CheckpointStorage::unmetered().with_config(config);
            let images = checkpoint_app(app, &storage, index as u64 + 1);
            (app, storage, images)
        })
        .collect()
}

#[test]
fn lz_round_trips_every_proxy_app_image_bit_identically() {
    for (app, storage, images) in corpus(StorageConfig::default()) {
        assert_eq!(storage.config(), StorageConfig::default());
        for image in &images {
            // Direct codec round-trip over the real upper-half bytes of this app, and
            // stream identity with the original encoder over each region and each
            // of the region's chunks.
            for (name, data) in image.upper_half.iter() {
                for_each_chunk(data, DEFAULT_CHUNK_SIZE, Digest::Xx64, |_, piece| {
                    assert_eq!(
                        lz_compress(piece),
                        seed_lz::seed_lz_compress(piece),
                        "{app:?} {name}"
                    );
                });
                assert_eq!(
                    lz_compress(data),
                    seed_lz::seed_lz_compress(data),
                    "{app:?} region {name}: LZ stream differs from the original encoder's"
                );
                if let Some(stream) = lz_compress(data) {
                    assert_eq!(
                        lz_decompress(&stream, data.len()).unwrap(),
                        data,
                        "{app:?} region {name} did not round-trip"
                    );
                }
            }
            // Store-level round-trip under both codec generations: writing this
            // image into a fresh store and reading it back must reproduce the
            // encoded image bit for bit.
            let reference = image.encode();
            for echo_config in [StorageConfig::default(), StorageConfig::legacy()] {
                let echo = CheckpointStorage::unmetered().with_config(echo_config);
                echo.write_image(StoragePolicy::IncrementalCompressed, image);
                let back = echo
                    .read(image.metadata.generation, image.metadata.rank)
                    .unwrap();
                assert_eq!(
                    back.encode(),
                    reference,
                    "{app:?} image changed through a {echo_config:?} store"
                );
            }
        }
    }
}

#[test]
fn lz_never_loses_to_rle_on_the_checkpoint_corpus() {
    for (app, _, images) in corpus(StorageConfig::default()) {
        let mut lz_written = 0usize;
        let mut rle_written = 0usize;
        for image in &images {
            let lz_store = CheckpointStorage::unmetered(); // default: LZ + XXH64
            let rle_store = CheckpointStorage::unmetered().with_config(StorageConfig::legacy());
            lz_written += lz_store
                .write_image(StoragePolicy::IncrementalCompressed, image)
                .written_bytes;
            rle_written += rle_store
                .write_image(StoragePolicy::IncrementalCompressed, image)
                .written_bytes;
        }
        assert!(
            lz_written <= rle_written,
            "{app:?}: LZ wrote {lz_written} bytes, RLE wrote {rle_written}"
        );
    }
}

#[test]
fn corrupted_or_truncated_lz_streams_never_decode_silently() {
    // One real image's most compressible region gives a stream exercising literal
    // runs, short matches, and extended-length matches.
    let storage = CheckpointStorage::unmetered();
    let images = checkpoint_app(AppId::CoMd, &storage, 77);
    let (name, data) = images[0]
        .upper_half
        .iter()
        .filter_map(|(name, data)| lz_compress(data).map(|s| (name, data, s.len())))
        .min_by_key(|(_, _, len)| *len)
        .map(|(name, data, _)| (name, data))
        .expect("at least one region compresses");
    let stream = lz_compress(data).unwrap();
    assert!(
        stream.len() < data.len(),
        "region {name} stream not smaller"
    );

    // Every truncation must be rejected outright: each op produces at least one
    // byte, so a shortened stream can never reach the recorded length.
    for cut in 0..stream.len() {
        assert!(
            lz_decompress(&stream[..cut], data.len()).is_err(),
            "truncation at {cut} decoded"
        );
    }
    // Every single-byte corruption must either be rejected by the framing or
    // produce different bytes — which the store's digest validation then catches,
    // exactly like the flat image's CRC.
    for position in 0..stream.len() {
        let mut corrupted = stream.clone();
        corrupted[position] ^= 0x10;
        match lz_decompress(&corrupted, data.len()) {
            Err(_) => {}
            Ok(decoded) => assert_ne!(
                &decoded[..],
                data,
                "flip at {position} decoded to the original bytes"
            ),
        }
    }
}

#[test]
fn incompressible_chunks_fall_back_to_stored_raw_framing() {
    // A xorshift stream has no usable matches: the codec must decline, the store
    // must frame the chunk raw, and the read must still be bit-identical.
    let mut state = 0x2545_F491_4F6C_DD1Du64;
    let noise: Vec<u8> = (0..96 * 1024)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state as u8
        })
        .collect();
    assert!(lz_compress(&noise).is_none());

    let mut upper = split_proc::address_space::UpperHalfSpace::new();
    upper.map_region("app.noise", noise.clone());
    let image = CheckpointImage::new(
        split_proc::image::ImageMetadata {
            rank: 0,
            world_size: 1,
            generation: 0,
            implementation: "mpich".into(),
        },
        upper,
    );
    let storage = CheckpointStorage::unmetered();
    let report = storage.write_image(StoragePolicy::IncrementalCompressed, &image);
    assert_eq!(
        report.compression_saved_bytes, 0,
        "nothing should have compressed"
    );
    let back = storage.read(0, 0).unwrap();
    assert_eq!(back.upper_half.iter().next().unwrap().1, &noise[..]);
}

#[test]
fn legacy_images_restore_bit_identically_under_the_new_default_config() {
    // Write the corpus the way the pre-codec store did (RLE + FNV-1a, version-1
    // manifests), then read it through a view configured with the new defaults:
    // reads follow the manifest's own record, so nothing may change.
    for (app, storage, images) in corpus(StorageConfig::legacy()) {
        let reader = storage.clone().with_config(StorageConfig::default());
        assert_eq!(reader.config(), StorageConfig::default());
        let generation = *storage.generations().last().unwrap();
        for (rank, image) in images.iter().enumerate() {
            let restored = reader.read(generation, rank as i32).unwrap();
            assert_eq!(
                restored.encode(),
                image.encode(),
                "{app:?} rank {rank} legacy image changed under the new config"
            );
        }
    }
}

#[test]
fn generations_written_under_different_configs_coexist_in_one_store() {
    // Generation G written under the legacy config, generation G+1 written after
    // the switch: both must restore bit-identically from the same catalog. The
    // store re-chunks everything at the switch (clean-region reuse is gated on the
    // digest matching), so the new generation never mixes digest spaces.
    let storage = CheckpointStorage::unmetered().with_config(StorageConfig::legacy());
    let images = checkpoint_app(AppId::Lulesh, &storage, 5);
    let generation = *storage.generations().last().unwrap();

    let switched = storage.clone().with_config(StorageConfig::default());
    let mut next_images = Vec::new();
    for image in &images {
        let mut metadata = image.metadata.clone();
        metadata.generation = generation + 1;
        let next = CheckpointImage::new(metadata, image.upper_half.clone());
        switched.write_image(StoragePolicy::IncrementalCompressed, &next);
        next_images.push(next);
    }

    for (rank, (old, new)) in images.iter().zip(&next_images).enumerate() {
        let rank = rank as i32;
        assert_eq!(
            switched.read(generation, rank).unwrap().encode(),
            old.encode()
        );
        assert_eq!(
            switched.read(generation + 1, rank).unwrap().encode(),
            new.encode()
        );
    }
}

#[test]
fn elastic_resize_works_across_codec_generations() {
    // Checkpoint elastically at 4 ranks under the legacy config, resize onto 3
    // ranks reading through the new default config, and require the finished job
    // checksum to equal the uninterrupted 4-rank run.
    let registry = registry();
    let elastic_config = |iterations, checkpoint_at, storage| RunConfig {
        iterations,
        state_scale: 1e-9,
        checkpoint_at,
        store: None,
        storage,
    };
    let run_elastic = |world: usize,
                       registry: &Registry,
                       session_id: u64,
                       config: RunConfig|
     -> Vec<ElasticReport> {
        let lowers = MpichFactory::mpich()
            .launch(world, registry.clone(), session_id)
            .unwrap();
        let handles: Vec<_> = lowers
            .into_iter()
            .map(|lower| {
                let registry = registry.clone();
                let config = config.clone();
                std::thread::spawn(move || {
                    let mana_config =
                        ManaConfig::new_design().with_storage(StoragePolicy::IncrementalCompressed);
                    let rank = ManaRank::new(lower, mana_config, registry).unwrap();
                    let mut session = Session::new(rank);
                    run_app_elastic(AppId::CoMd, &mut session, &config).unwrap()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    };

    let baseline = run_elastic(4, &registry, 1, elastic_config(6, None, None));
    let expected = job_checksum(&baseline);

    let storage = CheckpointStorage::unmetered().with_config(StorageConfig::legacy());
    run_elastic(
        4,
        &registry,
        2,
        elastic_config(3, Some(3), Some(storage.clone())),
    );

    // Resize reads through a new-default-config view of the same chunk space.
    let reader = storage.clone().with_config(StorageConfig::default());
    let lowers = MpichFactory::mpich()
        .launch(3, registry.clone(), 3)
        .unwrap();
    let (ranks, _) = resize_job_from_storage(
        lowers,
        &reader,
        RemapPolicy::Block,
        &SkeletonRepartition::default(),
        ManaConfig::new_design().with_storage(StoragePolicy::IncrementalCompressed),
        registry.clone(),
    )
    .unwrap();
    let finish_config = elastic_config(6, None, None);
    let handles: Vec<_> = ranks
        .into_iter()
        .map(|rank| {
            let config = finish_config.clone();
            std::thread::spawn(move || {
                let mut session = Session::new(rank);
                run_app_elastic(AppId::CoMd, &mut session, &config).unwrap()
            })
        })
        .collect();
    let finished: Vec<ElasticReport> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    assert_eq!(
        finished.iter().map(|r| r.iterations_completed).max(),
        Some(6)
    );
    assert_eq!(
        job_checksum(&finished),
        expected,
        "resize across codec generations diverged from the uninterrupted run"
    );
}
