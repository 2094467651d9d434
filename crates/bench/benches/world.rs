//! World benchmarks: generation cost, dynamics stepping, and the
//! end-to-end study driver at small scale.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};

use remnant::core::study::StudyConfig;
use remnant::core::StudySession;
use remnant::world::{World, WorldConfig};

fn config(population: usize) -> WorldConfig {
    WorldConfig {
        population,
        seed: 4,
        warmup_days: 0,
        calibration: remnant::world::Calibration::paper(),
    }
}

fn bench_world(c: &mut Criterion) {
    let mut group = c.benchmark_group("world");
    group.sample_size(10);

    group.bench_function("generate_5k_sites", |b| {
        b.iter(|| World::generate(config(5_000)));
    });

    group.bench_function("step_one_week_5k_sites", |b| {
        b.iter_batched(
            || World::generate(config(5_000)),
            |mut world| {
                world.step_days(7);
                world
            },
            BatchSize::SmallInput,
        );
    });

    group.bench_function("full_study_1wk_1k_sites", |b| {
        b.iter_batched(
            || World::generate(config(1_000)),
            |mut world| {
                StudySession::new(
                    StudyConfig {
                        weeks: 1,
                        uneven_intervals: false,
                        ..StudyConfig::default()
                    },
                    &world,
                )
                .run(&mut world, &mut |_| {})
            },
            BatchSize::SmallInput,
        );
    });

    group.finish();
}

criterion_group!(benches, bench_world);
criterion_main!(benches);
