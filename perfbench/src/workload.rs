//! The three traffic mixes. Every frame is generated from the seed before
//! any server starts, so the server receives only generated frames and the
//! client spends no CPU on generation while it measures.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use soctest_ate::spec::MEGA_VECTORS;
use soctest_ate::{AteSpec, ProbeStation, TestCell};
use soctest_bench::{
    fig6a_channel_counts, fig6b_depths, fig7a_contact_yields, fig7b_manufacturing_yields,
    table1_cases,
};
use soctest_multisite::engine::{OptimizeRequest, SweepAxis};
use soctest_multisite::problem::OptimizerConfig;
use soctest_multisite::service::{canonical_request, ClientFrame, OptimizeFrame, SocSpec};
use soctest_soc_model::writer::write_soc;
use soctest_soc_model::{Module, Soc};
use std::sync::Arc;

/// One traffic mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Uniform draws from a fixed set of catalogue requests that all hit
    /// the solution cache after set-up.
    RepeatHits,
    /// A never-seen inline SOC on every request.
    NewDesigns,
    /// Sweeps and single points over a few warm catalogue designs.
    WhatifSweeps,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [
        Workload::RepeatHits,
        Workload::NewDesigns,
        Workload::WhatifSweeps,
    ];

    /// The `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::RepeatHits => "repeat_hits",
            Workload::NewDesigns => "new_designs",
            Workload::WhatifSweeps => "whatif_sweeps",
        }
    }

    /// The workload called `name`, if any.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Measured requests per second of `--seconds`. The request count of
    /// a run is fixed by this rate and never by the speed of the server:
    /// the resident row store grows with every new design served, so a
    /// run of fixed duration would read a faster server as a memory
    /// regression. The rates are this workload's typical throughput on a
    /// 2-vCPU VM, so a run lasts about `--seconds` there.
    pub fn requests_per_second(self) -> usize {
        match self {
            Workload::RepeatHits => 2000,
            Workload::NewDesigns => 1000,
            Workload::WhatifSweeps => 1500,
        }
    }

    /// The frames of one run: `requests` measured requests, plus the
    /// requests that build the seeded cache directory and the warm-up
    /// pass that ends set-up. Same seed, same frames, byte for byte.
    pub fn plan(self, seed: u64, requests: usize) -> Plan {
        match self {
            Workload::RepeatHits => repeat_hits(seed, requests),
            Workload::NewDesigns => new_designs(seed, requests),
            Workload::WhatifSweeps => whatif_sweeps(seed, requests),
        }
    }
}

/// Where a request's SOC comes from.
#[derive(Debug, Clone)]
pub enum Target {
    /// A catalogue name the server resolves.
    Named(String),
    /// A design sent inline as `.soc` text.
    Inline(Arc<Soc>),
    /// An inline design only its frame keeps: unchecked requests drop
    /// the object once the frame is rendered, so a long stream stays
    /// small in the client.
    Sent,
}

/// One generated request.
#[derive(Debug, Clone)]
pub struct Req {
    /// The request id on the wire.
    pub id: String,
    /// The whole `Optimize` frame, newline included.
    pub wire: String,
    /// The SOC the frame names or carries.
    pub target: Target,
    /// The engine request inside the frame.
    pub request: OptimizeRequest,
    /// The `(SOC, canonical request)` identity: requests with equal keys
    /// must get byte-identical responses.
    pub key: String,
    /// Whether the response is byte-compared against an in-process
    /// engine run.
    pub checked: bool,
}

impl Req {
    fn new(id: String, target: Target, request: OptimizeRequest) -> Req {
        let (soc, name) = match &target {
            Target::Named(name) => (SocSpec::Named(name.clone()), name.clone()),
            Target::Inline(soc) => (SocSpec::Inline(write_soc(soc)), soc.name().to_string()),
            Target::Sent => unreachable!("frames are rendered from a design"),
        };
        let frame = ClientFrame::Optimize(OptimizeFrame {
            request_id: id.clone(),
            soc,
            request: request.clone(),
            deadline_ms: None,
            stats: false,
        });
        let mut wire = serde_json::to_string(&frame).expect("client frames serialise");
        wire.push('\n');
        Req {
            key: format!("{name} {}", canonical_request(&request)),
            id,
            wire,
            target,
            request,
            checked: false,
        }
    }

    /// The same request under another id.
    fn renamed(&self, id: String) -> Req {
        Req {
            checked: self.checked,
            ..Req::new(id, self.target.clone(), self.request.clone())
        }
    }

    /// The frame line without its newline.
    pub fn line(&self) -> &str {
        self.wire.trim_end_matches('\n')
    }

    /// Whether the request sweeps an axis.
    pub fn is_sweep(&self) -> bool {
        !matches!(self.request.sweep, SweepAxis::None)
    }

    /// Sweep points the request asks for (1 for a plain request).
    pub fn points(&self) -> usize {
        match &self.request.sweep {
            SweepAxis::Channels(counts) => counts.len(),
            SweepAxis::DepthVectors(depths) => depths.len(),
            SweepAxis::ContactYield {
                depths,
                contact_yields,
            } => depths.len() * contact_yields.len(),
            _ => 1,
        }
    }
}

/// Everything one run sends.
#[derive(Debug)]
pub struct Plan {
    /// Served in-process, in order, to build the seeded cache directory
    /// every set-up starts from.
    pub prime: Vec<Req>,
    /// The warm-up pass: set-up ends when every one is answered.
    pub warmup: Vec<Req>,
    /// The measured requests.
    pub stream: Vec<Req>,
}

/// Stream requests whose responses are byte-compared in the workloads
/// that do not check every reply.
const CHECKED_SAMPLE: usize = 48;

/// The seed of everything set-up serves: the `new_designs` core library
/// and the `whatif_sweeps` history. They are the same for every
/// `--seed`, so set-up is the same work on every run and `setup_s`
/// varies only with the machine; the seed varies the measured stream.
const SETUP_SEED: u64 = 0;

/// Distinct sub-seeds, so the prime pass, the stream and the sample of
/// one seed never share a random sequence.
fn rng(seed: u64, stream: u64) -> StdRng {
    StdRng::seed_from_u64(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ stream)
}

fn config(channels: usize, depth: u64) -> OptimizerConfig {
    OptimizerConfig::new(TestCell::new(
        AteSpec::new(channels, depth, 5.0e6),
        ProbeStation::paper_probe_station(),
    ))
}

/// Which of `requests` stream requests are checked: a seeded sample.
fn checked_sample(requests: usize, seed: u64) -> Vec<bool> {
    let mut checked = vec![false; requests];
    let mut rng = rng(seed, 4);
    let mut left = CHECKED_SAMPLE.min(requests);
    while left > 0 {
        let index = rng.gen_range(0..requests);
        if !checked[index] {
            checked[index] = true;
            left -= 1;
        }
    }
    checked
}

/// `count` distinct values of `grid`, in grid order.
fn pick<T: Copy>(rng: &mut StdRng, grid: &[T], count: usize) -> Vec<T> {
    let mut chosen = vec![false; grid.len()];
    let mut left = count.min(grid.len());
    while left > 0 {
        let index = rng.gen_range(0..grid.len());
        if !chosen[index] {
            chosen[index] = true;
            left -= 1;
        }
    }
    grid.iter()
        .zip(chosen)
        .filter_map(|(value, keep)| keep.then_some(*value))
        .collect()
}

/// `points` evenly spaced values from `min` to `max` inclusive.
fn linspace(min: u64, max: u64, points: u64) -> Vec<u64> {
    (0..points)
        .map(|i| min + (max - min) * i / (points - 1))
        .collect()
}

/// The fixed `repeat_hits` set: every Table 1 point of the four ITC'02
/// designs and the Figure 6 channel and depth grids of `pnx8550_like`.
pub fn catalogue_points() -> Vec<(String, OptimizeRequest)> {
    let mut points = Vec::new();
    for (soc, channels, depths) in table1_cases() {
        for depth in depths {
            points.push((
                soc.name().to_string(),
                OptimizeRequest::new(config(channels, depth)),
            ));
        }
    }
    let paper_depth = 7 * MEGA_VECTORS;
    for channels in fig6a_channel_counts() {
        points.push((
            "pnx8550_like".to_string(),
            OptimizeRequest::new(config(channels, paper_depth)),
        ));
    }
    for depth in fig6b_depths().into_iter().filter(|&d| d != paper_depth) {
        points.push((
            "pnx8550_like".to_string(),
            OptimizeRequest::new(config(512, depth)),
        ));
    }
    points
}

fn repeat_hits(seed: u64, requests: usize) -> Plan {
    let set: Vec<Req> = catalogue_points()
        .into_iter()
        .enumerate()
        .map(|(i, (name, request))| Req::new(format!("p{i}"), Target::Named(name), request))
        .collect();
    let mut rng = rng(seed, 1);
    let stream = (0..requests)
        .map(|i| {
            let mut req = set[rng.gen_range(0..set.len())].renamed(format!("r{i}"));
            req.checked = true;
            req
        })
        .collect();
    Plan {
        warmup: set
            .iter()
            .enumerate()
            .map(|(i, req)| req.renamed(format!("w{i}")))
            .collect(),
        prime: set,
        stream,
    }
}

/// Core-library modules shared by the `new_designs` SOCs.
const LIBRARY_MODULES: usize = 64;
/// Share of each new design's modules drawn from the core library; their
/// rows are in the seeded `rows.v1`, the rest of the modules are fresh.
const LIBRARY_SHARE: f64 = 0.5;
/// Library-only designs of the prime pass (library modules split evenly).
const PRIME_DESIGNS: usize = 8;
/// Module count of a new design: the ITC'02 range (d695 has 10 modules,
/// p93791 32).
const DESIGN_MODULES: std::ops::RangeInclusive<usize> = 10..=32;
/// ATE channel counts and depths of `new_designs` requests.
const NEW_DESIGN_CHANNELS: [usize; 3] = [256, 384, 512];
const NEW_DESIGN_DEPTHS: [u64; 2] = [512 * 1024, 1024 * 1024];

/// A random scan-tested core in the ranges of the ITC'02 logic cores.
fn random_module(rng: &mut StdRng, name: String) -> Module {
    let chains = rng.gen_range(1..=16usize);
    let io = rng.gen_range(8..=120u32);
    Module::builder(name)
        .patterns(rng.gen_range(20..=400u64))
        .inputs(io / 2)
        .outputs(io - io / 2)
        .scan_chains((0..chains).map(|_| rng.gen_range(20..=400u64)))
        .build()
}

fn new_designs(seed: u64, requests: usize) -> Plan {
    let mut library_rng = rng(SETUP_SEED, 2);
    let library: Vec<Module> = (0..LIBRARY_MODULES)
        .map(|k| random_module(&mut library_rng, format!("lib{k}")))
        .collect();
    let configs: Vec<OptimizeRequest> = NEW_DESIGN_CHANNELS
        .iter()
        .flat_map(|&channels| {
            NEW_DESIGN_DEPTHS
                .iter()
                .map(move |&depth| OptimizeRequest::new(config(channels, depth)))
        })
        .collect();

    let mut prime = Vec::new();
    for (j, chunk) in library.chunks(LIBRARY_MODULES / PRIME_DESIGNS).enumerate() {
        let mut soc = Soc::new(format!("pd{j}"));
        for module in chunk {
            soc.push_module(module.clone());
        }
        let soc = Arc::new(soc);
        for request in &configs {
            let id = format!("p{}", prime.len());
            prime.push(Req::new(
                id,
                Target::Inline(Arc::clone(&soc)),
                request.clone(),
            ));
        }
    }

    let checked = checked_sample(requests, seed);
    let mut rng = rng(seed, 1);
    let stream: Vec<Req> = (0..requests)
        .map(|i| {
            let modules = rng.gen_range(DESIGN_MODULES);
            let shared = (modules as f64 * LIBRARY_SHARE).round() as usize;
            let from_library = pick(&mut rng, &(0..LIBRARY_MODULES).collect::<Vec<_>>(), shared);
            let mut soc = Soc::new(format!("nd{i}"));
            for k in from_library {
                soc.push_module(library[k].clone());
            }
            for k in shared..modules {
                soc.push_module(random_module(&mut rng, format!("m{k}")));
            }
            let request = configs[rng.gen_range(0..configs.len())].clone();
            let mut req = Req::new(format!("r{i}"), Target::Inline(Arc::new(soc)), request);
            req.checked = checked[i];
            if !req.checked {
                req.target = Target::Sent;
            }
            req
        })
        .collect();
    Plan {
        warmup: prime
            .iter()
            .enumerate()
            .map(|(i, req)| req.renamed(format!("w{i}")))
            .collect(),
        prime,
        stream,
    }
}

/// Prime-pass length of `whatif_sweeps`: the history whose rows and
/// solutions the seeded cache directory holds.
const WHATIF_HISTORY: usize = 400;
/// The warm-up pass re-sends the newest prime requests (cache hits).
const WHATIF_WARMUP: usize = 16;

/// A warm design of `whatif_sweeps` with its channel and depth grids.
struct Design {
    name: String,
    channels: Vec<usize>,
    depths: Vec<u64>,
}

/// Four catalogue designs: the Table 1 depth range of each ITC'02 design
/// and the Figure 6(b) range of `pnx8550_like`, 12 depths each, over the
/// Figure 6(a) channel range at twice its density (17 counts).
fn whatif_designs() -> Vec<Design> {
    let channels: Vec<usize> = (0..=16).map(|i| 512 + 32 * i).collect();
    let range = |depths: &[u64]| {
        let min = depths.iter().copied().min().expect("grid is non-empty");
        let max = depths.iter().copied().max().expect("grid is non-empty");
        linspace(min, max, 12)
    };
    let mut designs = vec![Design {
        name: "pnx8550_like".to_string(),
        channels: channels.clone(),
        depths: range(&fig6b_depths()),
    }];
    for (soc, _, depths) in table1_cases() {
        if soc.name() != "d695" {
            designs.push(Design {
                name: soc.name().to_string(),
                channels: channels.clone(),
                depths: range(&depths),
            });
        }
    }
    designs
}

/// One `whatif_sweeps` request. Class shares stay far from 1% and 50% so
/// no latency percentile sits on a class boundary: plain points 30%,
/// channel and depth sweeps 20% each, contact- and manufacturing-yield
/// sweeps 15% each.
fn whatif_request(rng: &mut StdRng, designs: &[Design]) -> (String, OptimizeRequest) {
    let design = &designs[rng.gen_range(0..designs.len())];
    let channels = design.channels[rng.gen_range(0..design.channels.len())];
    let depth = design.depths[rng.gen_range(0..design.depths.len())];
    let base = OptimizeRequest::new(config(channels, depth));
    let request = match rng.gen_range(0..100u32) {
        0..=29 => base,
        30..=49 => base.with_sweep(SweepAxis::Channels(pick(rng, &design.channels, 3))),
        50..=69 => base.with_sweep(SweepAxis::DepthVectors(pick(rng, &design.depths, 3))),
        70..=84 => base.with_sweep(SweepAxis::ContactYield {
            depths: pick(rng, &design.depths, 2),
            contact_yields: pick(rng, &fig7a_contact_yields(), 2),
        }),
        _ => base.with_sweep(SweepAxis::ManufacturingYield {
            max_sites: 8,
            manufacturing_yields: pick(rng, &fig7b_manufacturing_yields(), 2),
        }),
    };
    (design.name.clone(), request)
}

fn whatif_sweeps(seed: u64, requests: usize) -> Plan {
    let designs = whatif_designs();
    let mut history = rng(SETUP_SEED, 3);
    let prime: Vec<Req> = (0..WHATIF_HISTORY)
        .map(|i| {
            let (name, request) = whatif_request(&mut history, &designs);
            Req::new(format!("p{i}"), Target::Named(name), request)
        })
        .collect();
    let checked = checked_sample(requests, seed);
    let mut rng = rng(seed, 1);
    let stream: Vec<Req> = (0..requests)
        .map(|i| {
            let (name, request) = whatif_request(&mut rng, &designs);
            let mut req = Req::new(format!("r{i}"), Target::Named(name), request);
            req.checked = checked[i];
            req
        })
        .collect();
    Plan {
        warmup: prime[prime.len() - WHATIF_WARMUP..]
            .iter()
            .enumerate()
            .map(|(i, req)| req.renamed(format!("w{i}")))
            .collect(),
        prime,
        stream,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frames(plan: &Plan) -> String {
        let all = plan.prime.iter().chain(&plan.warmup).chain(&plan.stream);
        all.map(|req| req.wire.as_str()).collect()
    }

    #[test]
    fn same_seed_gives_byte_identical_frames() {
        for workload in Workload::ALL {
            let a = frames(&workload.plan(7, 64));
            let b = frames(&workload.plan(7, 64));
            assert_eq!(a, b, "{}", workload.name());
        }
    }

    #[test]
    fn different_seeds_give_different_streams() {
        for workload in Workload::ALL {
            let stream = |seed| {
                let plan = workload.plan(seed, 64);
                plan.stream
                    .iter()
                    .map(|r| r.wire.clone())
                    .collect::<String>()
            };
            assert_ne!(stream(1), stream(2), "{}", workload.name());
        }
    }

    #[test]
    fn request_ids_are_unique_and_counts_fixed() {
        for workload in Workload::ALL {
            let plan = workload.plan(3, 100);
            assert_eq!(plan.stream.len(), 100);
            let mut ids: Vec<&str> = plan.stream.iter().map(|r| r.id.as_str()).collect();
            ids.extend(plan.warmup.iter().map(|r| r.id.as_str()));
            let total = ids.len();
            ids.sort_unstable();
            ids.dedup();
            assert_eq!(ids.len(), total, "{}", workload.name());
            assert!(plan.stream.iter().any(|r| r.checked));
        }
    }

    #[test]
    fn new_designs_never_repeat_a_design() {
        let plan = Workload::NewDesigns.plan(5, 200);
        let mut texts: Vec<String> = plan
            .stream
            .iter()
            .map(
                |req| match soctest_multisite::service::parse_client_frame(req.line()) {
                    Ok(ClientFrame::Optimize(OptimizeFrame {
                        soc: SocSpec::Inline(text),
                        ..
                    })) => text,
                    other => panic!("not an inline Optimize frame: {other:?}"),
                },
            )
            .collect();
        texts.sort_unstable();
        texts.dedup();
        assert_eq!(texts.len(), 200);
    }
}
