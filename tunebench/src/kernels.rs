//! Bare-kernel timings taken by the benchmark itself: the best plain
//! algorithm for an input stream (the oracle `oracle_ratio` divides by),
//! and single kernels such as the one the tuner settled on.
//!
//! The host's speed drifts by tens of percent over seconds, so the
//! oracle is chosen once and then re-timed next to each measurement
//! round; a ratio is only taken between figures measured together.
//! Oracle and matcher timings are in thread CPU time: wall time over a
//! few milliseconds doubles whenever the hypervisor steals the virtual
//! CPU.

use crate::median;
use crate::trace::{now_ns, thread_cpu_ns};
use autotune::param::Value;
use autotune::space::Configuration;
use raytrace::kdtree::KdBuilder;
use raytrace::render::RenderOptions;
use raytrace::scene::Scene;
use smallsort::SortKey;
use std::collections::BTreeMap;
use std::hint::black_box;
use stringmatch::Matcher;

/// Timed repetitions of a batch when timing the oracle; the median is
/// kept. The host's speed moves within milliseconds, so a median over a
/// few milliseconds of repetitions is steadier than the fastest one.
pub const REPS: usize = 21;
/// Timed repetitions per candidate when choosing the oracle.
const CHOOSE_REPS: usize = 3;
/// Calls per timed batch of a matcher.
const MATCH_BATCH: usize = 40;
/// Inputs per key the sort oracle times.
const INPUTS_PER_KEY: usize = 256;
/// Inputs per key the sort oracle is chosen on.
const CHOOSE_INPUTS: usize = 32;

/// Untimed run-in before timing: a core that was idle runs slow for a
/// while after it gets work.
const RUN_IN_NS: u64 = 20_000_000;

/// Keep the core busy with `work` for [`RUN_IN_NS`], untimed.
pub fn run_in(mut work: impl FnMut()) {
    let end = now_ns() + RUN_IN_NS;
    while now_ns() < end {
        work();
    }
}

/// Median of `reps` runs of `batch`, in ns of thread CPU time.
pub fn median_ns(reps: usize, mut batch: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = thread_cpu_ns();
            batch();
            (thread_cpu_ns() - t0) as f64
        })
        .collect();
    median(&samples)
}

/// µs of one `count` of `pattern` in `text` by `m`, the median of
/// `reps` batches.
pub fn matcher_us(m: &dyn Matcher, pattern: &[u8], text: &[u8], reps: usize) -> f64 {
    median_ns(reps, || {
        for _ in 0..MATCH_BATCH {
            black_box(m.count(black_box(pattern), black_box(text)));
        }
    }) / 1e3
        / MATCH_BATCH as f64
}

/// The plain sort variants the oracle chooses among: every algorithm,
/// with a few settings of its one parameter.
pub fn sort_variants() -> Vec<(usize, Configuration)> {
    let mut v = vec![
        (0, Configuration::new(vec![])),
        (1, Configuration::new(vec![])),
    ];
    for algorithm in [2, 3] {
        for cutoff in [8, 16, 32] {
            v.push((algorithm, Configuration::new(vec![Value::Int(cutoff)])));
        }
    }
    for bits in [4, 8, 16] {
        v.push((4, Configuration::new(vec![Value::Int(bits)])));
    }
    v
}

/// Placements of the sorted buffer that successive batches cycle
/// through, [`PLACEMENT_STEP`] keys apart: together they span 4 KiB.
const PLACEMENTS: usize = 8;
const PLACEMENT_STEP: usize = 4096 / 8 / PLACEMENTS;

/// Mean ns to copy and sort one of `inputs` with one variant, the
/// median of `reps` batches. LSD radix sort runs up to 1.5× slower when
/// the buffer it sorts sits at some offsets modulo 4 KiB from its own
/// scratch buffer, and where the allocator puts that scratch changes
/// within a run; cycling the placement makes the median the cost at a
/// typical placement instead of at the one the allocator chose.
fn sort_ns(inputs: &[Vec<u64>], algorithm: usize, config: &Configuration, reps: usize) -> f64 {
    let longest = inputs.iter().map(Vec::len).max().unwrap_or(0);
    let mut scratch = vec![0u64; longest + PLACEMENTS * PLACEMENT_STEP];
    let mut batch = 0;
    median_ns(reps, || {
        let at = (batch % PLACEMENTS) * PLACEMENT_STEP;
        batch += 1;
        for x in inputs {
            let buf = &mut scratch[at..at + x.len()];
            buf.copy_from_slice(x);
            smallsort::sort_with(algorithm, config, black_box(buf));
        }
    }) / inputs.len() as f64
}

/// One sort key of the oracle: sample inputs, the best variant for
/// them, and the key's share of the stream.
pub struct KeyOracle {
    inputs: Vec<Vec<u64>>,
    algorithm: usize,
    config: Configuration,
    share: f64,
}

/// The best plain algorithm for a request stream.
pub enum Oracle {
    /// The fastest matcher for the one query.
    Match {
        matcher: Box<dyn Matcher>,
        pattern: Vec<u8>,
        text: Vec<u8>,
    },
    /// Per sort key, the fastest plain variant.
    Sort(Vec<KeyOracle>),
}

impl Oracle {
    /// Pick the fastest of `matchers` for `pattern` in `text`.
    pub fn matching(matchers: Vec<Box<dyn Matcher>>, pattern: &[u8], text: &[u8]) -> Oracle {
        run_in(|| {
            black_box(matchers[0].count(pattern, text));
        });
        let times: Vec<f64> = matchers
            .iter()
            .map(|m| matcher_us(m.as_ref(), pattern, text, CHOOSE_REPS))
            .collect();
        let best = (0..times.len())
            .min_by(|&a, &b| times[a].total_cmp(&times[b]))
            .expect("at least one matcher");
        Oracle::Match {
            matcher: matchers.into_iter().nth(best).expect("index in range"),
            pattern: pattern.to_vec(),
            text: text.to_vec(),
        }
    }

    /// Pick, per key of `stream`, the fastest of [`sort_variants`] on
    /// the key's first [`INPUTS_PER_KEY`] inputs.
    pub fn sorting(stream: &[Vec<u64>]) -> Oracle {
        let mut by_key: BTreeMap<SortKey, (Vec<Vec<u64>>, usize)> = BTreeMap::new();
        for x in stream {
            let (xs, n) = by_key.entry(SortKey::of(x)).or_default();
            if xs.len() < INPUTS_PER_KEY {
                xs.push(x.clone());
            }
            *n += 1;
        }
        let variants = sort_variants();
        let mut scratch = Vec::new();
        run_in(|| {
            for (xs, _) in by_key.values() {
                scratch.clone_from(&xs[0]);
                smallsort::sort_with(0, &variants[0].1, black_box(&mut scratch));
            }
        });
        let keys = by_key
            .into_values()
            .map(|(inputs, n)| {
                let times: Vec<f64> = variants
                    .iter()
                    .map(|(a, c)| {
                        let sample = &inputs[..inputs.len().min(CHOOSE_INPUTS)];
                        sort_ns(sample, *a, c, CHOOSE_REPS)
                    })
                    .collect();
                let best = (0..times.len())
                    .min_by(|&a, &b| times[a].total_cmp(&times[b]))
                    .expect("at least one variant");
                let (algorithm, config) = variants[best].clone();
                KeyOracle {
                    inputs,
                    algorithm,
                    config,
                    share: n as f64 / stream.len() as f64,
                }
            })
            .collect();
        Oracle::Sort(keys)
    }

    /// Bare µs per request of the oracle, timed now.
    pub fn time_us(&self) -> f64 {
        let mut scratch = Vec::new();
        run_in(|| match self {
            Oracle::Match {
                matcher,
                pattern,
                text,
            } => {
                black_box(matcher.count(pattern, text));
            }
            Oracle::Sort(keys) => {
                for k in keys {
                    scratch.clone_from(&k.inputs[0]);
                    smallsort::sort_with(k.algorithm, &k.config, black_box(&mut scratch));
                }
            }
        });
        match self {
            Oracle::Match {
                matcher,
                pattern,
                text,
            } => matcher_us(matcher.as_ref(), pattern, text, REPS),
            Oracle::Sort(keys) => {
                keys.iter()
                    .map(|k| k.share * sort_ns(&k.inputs, k.algorithm, &k.config, REPS))
                    .sum::<f64>()
                    / 1e3
            }
        }
    }
}

/// Median ms of one frame of `scene` by `builder` under `config`.
pub fn frame_ms(
    scene: &Scene,
    builder: &dyn KdBuilder,
    config: &Configuration,
    base: &RenderOptions,
) -> f64 {
    let build = raytrace::tunable::decode(builder.name(), config);
    let opts = raytrace::tunable::decode_render(config, base);
    let samples: Vec<f64> = (0..3)
        .map(|_| {
            let t0 = now_ns();
            black_box(raytrace::render::frame(scene, builder, &build, &opts));
            (now_ns() - t0) as f64 / 1e6
        })
        .collect();
    median(&samples)
}
