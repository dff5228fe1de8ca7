//! `emlio` — command-line front end for the EMLIO service.
//!
//! ```text
//! emlio convert  --out DIR [--dataset tiny|imagenet|coco|synthetic] [--samples N] [--shards K]
//! emlio daemon   --data DIR --connect tcp://HOST:PORT [--threads T] [--batch B] [--epochs E] [--node NAME]
//!                [--cache-mb MB] [--cache-disk-mb MB] [--cache-persist DIR]
//! emlio receive  --bind tcp://ADDR:PORT --streams N [--resize W] [--quiet]
//! emlio bench-io --data DIR [--batch B] [--threads T] [--rtt-ms MS] [--cache-mb MB] [...]
//! emlio figures  [fig1 fig5 fig6 fig7 fig8 fig9 fig10 fig11 ablations]
//! ```
//!
//! `daemon` and `receive` run in separate processes (or separate machines);
//! they agree on the batch plan because the planner is deterministic in the
//! shared seed. `bench-io` is the one-process loopback measurement, with an
//! optional netem-shaped RTT. `--peer-fleet N` runs N daemons as a
//! cooperative cache fleet over one emulated NFS mount — the contention
//! experiment's set-up, `emlio::bench::contention::shared_mount_storage`
//! (`--rtt-ms` then shapes the shared storage link instead of the
//! receiver wire);
//! `--peer-timeout-ms` bounds a peer fetch before a read degrades to
//! direct NFS. `--cache-mb` enables the daemon-side shard
//! block cache (`emlio-cache`) so repeated epochs are served from memory;
//! `--cache-persist DIR` keeps the disk spill tier (CRC-validated) across
//! daemon restarts. Eviction follows the epoch plan (the block needed
//! furthest in the future goes first), and a cache always prefetches along
//! the plan, as far ahead as `--cache-mb` allows; it fills free RAM from the
//! disk tier as well as from storage, so a restarted persistent cache needs
//! no warm-up step. A flag the command does not know is an error, not a
//! no-op.

use emlio::bench::contention::shared_mount_storage;
use emlio::cache::peer::PeerConfig;
use emlio::cache::CacheConfig;
use emlio::core::export::{self, MetricsSampler, SampleSource};
use emlio::core::plan::Plan;
use emlio::core::receiver::{EmlioReceiver, ReceiverConfig};
use emlio::core::service::StorageSpec;
use emlio::core::{EmlioConfig, EmlioDaemon, EmlioService};
use emlio::datagen::convert::build_tfrecord_dataset;
use emlio::datagen::DatasetSpec;
use emlio::energymon::{peer_savings, DEFAULT_STORAGE_IO_WATTS};
use emlio::netem::{NetProfile, NfsConfig, NfsMount};
use emlio::pipeline::{ExternalSource, PipelineBuilder};
use emlio::tfrecord::{GlobalIndex, ShardSpec};
use emlio::util::bytesize::format_bytes;
use emlio::util::clock::RealClock;
use emlio::zmq::Endpoint;
use std::collections::HashMap;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Dispatch one command line (without the program name).
fn run(args: &[String]) -> Result<(), String> {
    let Some((cmd, rest)) = args.split_first() else {
        return Err(format!("no command given\n{USAGE}"));
    };
    match cmd.as_str() {
        "convert" => cmd_convert(parse_flags(rest, &[CONVERT_FLAGS])?),
        "daemon" => cmd_daemon(parse_flags(
            rest,
            &[DAEMON_FLAGS, CONFIG_FLAGS, METRICS_FLAGS],
        )?),
        "receive" => cmd_receive(parse_flags(rest, &[RECEIVE_FLAGS, METRICS_FLAGS])?),
        "bench-io" => cmd_bench_io(parse_flags(
            rest,
            &[BENCH_IO_FLAGS, CONFIG_FLAGS, METRICS_FLAGS],
        )?),
        "chaos" => cmd_chaos(parse_flags(rest, &[CHAOS_FLAGS])?),
        "report" => cmd_report(parse_flags(rest, &[REPORT_FLAGS])?),
        "figures" => emlio::bench::run_figures(rest),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command {other:?}\n{USAGE}")),
    }
}

// The flag names each command accepts (`--log-level` goes everywhere).
const CONVERT_FLAGS: &[&str] = &["out", "dataset", "samples", "shards"];
const DAEMON_FLAGS: &[&str] = &["data", "connect", "node"];
const RECEIVE_FLAGS: &[&str] = &["bind", "streams", "resize", "quiet"];
const BENCH_IO_FLAGS: &[&str] = &["data", "rtt-ms", "peer-fleet", "peer-timeout-ms"];
const CHAOS_FLAGS: &[&str] = &[
    "seed",
    "seeds",
    "base-seed",
    "config",
    "samples",
    "batch",
    "threads",
    "epochs",
];
const REPORT_FLAGS: &[&str] = &["metrics"];
/// What [`config_from`] reads (daemon and bench-io).
const CONFIG_FLAGS: &[&str] = &[
    "batch",
    "threads",
    "epochs",
    "seed",
    "io-retries",
    "io-backoff-ms",
    "cache-mb",
    "cache-disk-mb",
    "cache-persist",
];
/// What [`MetricsFile::spawn`] reads (daemon, receive and bench-io).
const METRICS_FLAGS: &[&str] = &["metrics-out", "sample-ms"];

const USAGE: &str = "\
emlio — energy- and latency-minimizing training I/O (SC'25 reproduction)

USAGE:
  emlio convert  --out DIR [--dataset tiny|imagenet|coco|synthetic] [--samples N] [--shards K]
  emlio daemon   --data DIR --connect tcp://HOST:PORT [--threads T] [--batch B] [--epochs E] [--node NAME]
                 [--cache-mb MB] [--cache-disk-mb MB] [--cache-persist DIR]
  emlio receive  --bind tcp://ADDR:PORT --streams N [--resize W] [--quiet]
  emlio bench-io --data DIR [--batch B] [--threads T] [--rtt-ms MS] [--cache-mb MB]
                 [--peer-fleet N] [--peer-timeout-ms MS] [...]
  emlio chaos    [--seed HEX | --seeds N [--base-seed N]]
                 [--config cached|fleet|spill-persist|striped|all]
                 [--samples N] [--batch B] [--threads T] [--epochs E]
  emlio report   --metrics FILE
  emlio figures  [fig1 fig5 fig6 fig7 fig8 fig9 fig10 fig11 ablations]

daemon / bench-io also take --io-retries R [--io-backoff-ms MS] to absorb
transient storage read failures with bounded, seed-deterministic
exponential backoff before surfacing an error.
chaos runs seeded fault-injection schedules (see docs/TESTING.md) through the
same launch harness bench-io uses and fails loudly — printing the replay
seed — on any silent-corruption, lost-batch, or duplicate-batch violation.
Endpoints are tcp://HOST:PORT; there is no other transport.

Every command but figures also takes --log-level error|warn|info|debug|trace
(default warn); a flag the command does not know is an error.
daemon / receive / bench-io take --metrics-out FILE [--sample-ms MS] to record
per-stage latency histograms and data-path counters as Influx line protocol;
render a recorded file with `emlio report`.";

/// The `--metrics-out` sampler, spawned when the flag is present.
/// [`finish`](MetricsFile::finish) writes the line-protocol file and
/// prints the rendered report.
struct MetricsFile {
    out: std::path::PathBuf,
    sampler: MetricsSampler,
}

impl MetricsFile {
    fn spawn(
        flags: &HashMap<String, String>,
        sources: Vec<SampleSource>,
    ) -> Result<Option<MetricsFile>, String> {
        let Some(out) = flags.get("metrics-out") else {
            return Ok(None);
        };
        let sample_ms: u64 = get_num(flags, "sample-ms", 500)?;
        Ok(Some(MetricsFile {
            out: out.into(),
            sampler: MetricsSampler::spawn(sources, Duration::from_millis(sample_ms.max(1))),
        }))
    }

    fn finish(self) -> Result<(), String> {
        let db = self.sampler.finish();
        export::write_line_protocol(&db, &self.out)
            .map_err(|e| format!("writing {}: {e}", self.out.display()))?;
        println!(
            "metrics: {} points -> {}",
            db.point_count(),
            self.out.display()
        );
        print!("{}", export::render_report(&db));
        Ok(())
    }
}

fn cmd_report(flags: HashMap<String, String>) -> Result<(), String> {
    let path = get(&flags, "metrics")?;
    let db = export::read_line_protocol(std::path::Path::new(path))
        .map_err(|e| format!("reading {path}: {e}"))?;
    print!("{}", export::render_report(&db));
    Ok(())
}

/// Parse `--key value` pairs (`--flag` with no value stores "true").
/// Only the names in `accepted` (and `--log-level`, which is resolved into
/// the global logger here) are flags of the command; anything else on the
/// line is an error that lists them, so a typo cannot run defaults.
fn parse_flags(args: &[String], accepted: &[&[&str]]) -> Result<HashMap<String, String>, String> {
    let accepted: Vec<&str> = accepted.concat();
    let known = || -> String {
        let mut names: Vec<String> = accepted.iter().map(|n| format!("--{n}")).collect();
        names.push("--log-level".into());
        names.join(" ")
    };
    let mut map = HashMap::new();
    let mut i = 0;
    while i < args.len() {
        let Some(key) = args[i].strip_prefix("--") else {
            let arg = &args[i];
            return Err(format!("unexpected argument {arg:?} (flags: {})", known()));
        };
        if key != "log-level" && !accepted.contains(&key) {
            return Err(format!("unknown flag --{key} (accepted: {})", known()));
        }
        let value = if i + 1 < args.len() && !args[i + 1].starts_with("--") {
            i += 1;
            args[i].clone()
        } else {
            "true".to_string()
        };
        map.insert(key.to_string(), value);
        i += 1;
    }
    if let Some(v) = map.get("log-level") {
        let level: emlio::obs::Level = v.parse()?;
        emlio::obs::logger::set_level(level);
    }
    Ok(map)
}

fn get<'a>(flags: &'a HashMap<String, String>, key: &str) -> Result<&'a str, String> {
    flags
        .get(key)
        .map(String::as_str)
        .ok_or_else(|| format!("missing required flag --{key}"))
}

fn get_num<T: std::str::FromStr>(
    flags: &HashMap<String, String>,
    key: &str,
    default: T,
) -> Result<T, String> {
    match flags.get(key) {
        None => Ok(default),
        Some(v) => v.parse().map_err(|_| format!("--{key}: bad value {v:?}")),
    }
}

/// A count flag: a number of at least 1.
fn get_count<T: std::str::FromStr + PartialEq + From<u8>>(
    flags: &HashMap<String, String>,
    key: &str,
    default: T,
) -> Result<T, String> {
    let n = get_num(flags, key, default)?;
    if n == T::from(0) {
        return Err(format!("--{key} must be at least 1"));
    }
    Ok(n)
}

fn cmd_convert(flags: HashMap<String, String>) -> Result<(), String> {
    let out = get(&flags, "out")?;
    let dataset = flags.get("dataset").map(String::as_str).unwrap_or("tiny");
    let samples: u64 = get_count(&flags, "samples", 256)?;
    let shards: u32 = get_count(&flags, "shards", 4)?;
    let spec = match dataset {
        "tiny" => DatasetSpec::tiny("cli", samples),
        "imagenet" => DatasetSpec::imagenet_like().with_samples(samples),
        "coco" => DatasetSpec::coco_like().with_samples(samples),
        "synthetic" => DatasetSpec::synthetic_2mb().with_samples(samples),
        other => return Err(format!("unknown dataset {other:?}")),
    };
    let t0 = std::time::Instant::now();
    let index = build_tfrecord_dataset(std::path::Path::new(out), &spec, ShardSpec::Count(shards))
        .map_err(|e| e.to_string())?;
    println!(
        "converted {} samples ({}) into {} shards in {:.2?} at {}",
        index.total_records(),
        format_bytes(index.total_bytes()),
        index.shards.len(),
        t0.elapsed(),
        out,
    );
    Ok(())
}

fn config_from(flags: &HashMap<String, String>) -> Result<EmlioConfig, String> {
    let io_retries: u32 = get_num(flags, "io-retries", 0)?;
    if flags.contains_key("io-backoff-ms") && io_retries == 0 {
        return Err("--io-backoff-ms requires --io-retries to enable retrying".into());
    }
    let mut config = EmlioConfig::default()
        .with_batch_size(get_count(flags, "batch", 64usize)?)
        .with_threads(get_count(flags, "threads", 2usize)?)
        .with_epochs(get_count(flags, "epochs", 1u32)?)
        .with_seed(get_num(flags, "seed", 0x000E_4110_u64)?)
        .with_io_retries(io_retries)
        .with_io_backoff(Duration::from_millis(get_num(
            flags,
            "io-backoff-ms",
            5u64,
        )?));
    let cache_mb: u64 = get_num(flags, "cache-mb", 0)?;
    let persist_dir = flags.get("cache-persist").cloned();
    if cache_mb > 0 {
        // A persistent cache needs a disk tier; default it to the RAM
        // tier's size when --cache-disk-mb is not given. An explicit 0
        // contradicts --cache-persist and must not be silently overridden.
        let mut disk_mb: u64 = get_num(flags, "cache-disk-mb", 0)?;
        if persist_dir.is_some() && disk_mb == 0 {
            if flags.contains_key("cache-disk-mb") {
                return Err("--cache-persist requires a disk tier (--cache-disk-mb > 0)".into());
            }
            disk_mb = cache_mb;
        }
        let mut cache = CacheConfig::default()
            .with_ram_bytes(cache_mb << 20)
            .with_disk_bytes(disk_mb << 20);
        if let Some(dir) = persist_dir {
            cache = cache.with_persist_dir(dir.into());
        }
        config = config.with_cache(cache);
    } else {
        for flag in ["cache-persist", "cache-disk-mb"] {
            if flags.contains_key(flag) {
                return Err(format!("--{flag} requires --cache-mb to enable the cache"));
            }
        }
    }
    Ok(config)
}

fn cmd_daemon(flags: HashMap<String, String>) -> Result<(), String> {
    let data = get(&flags, "data")?;
    let connect = Endpoint::parse(get(&flags, "connect")?).map_err(|e| e.to_string())?;
    let node = flags
        .get("node")
        .cloned()
        .unwrap_or_else(|| "compute-0".to_string());
    let config = config_from(&flags)?;
    let daemon = EmlioDaemon::open("daemon-0", std::path::Path::new(data), config.clone())
        .map_err(|e| e.to_string())?;
    let plan = Plan::build(daemon.index(), std::slice::from_ref(&node), &config);
    let total: u64 = (0..config.epochs).map(|e| plan.batches_for(e, &node)).sum();
    println!(
        "daemon: serving {} batches × {} epochs to {node} at {connect} with T={}",
        total / config.epochs as u64,
        config.epochs,
        config.threads_per_node,
    );
    println!("daemon: read stack: {}", daemon.source_description());
    let metrics_file = MetricsFile::spawn(
        &flags,
        vec![SampleSource::new(
            "daemon-0",
            daemon.metrics(),
            daemon.recorder(),
        )],
    )?;
    let t0 = std::time::Instant::now();
    daemon
        .serve(&plan, &node, &connect)
        .map_err(|e| e.to_string())?;
    let snap = daemon.metrics().snapshot();
    println!(
        "done in {:.2?}: {} batches / {} samples / {} read+serialized ({} storage reads)",
        t0.elapsed(),
        snap.batches,
        snap.samples,
        format_bytes(snap.bytes),
        snap.storage_reads,
    );
    if config.cache.is_some() {
        println!("{}", snap.cache_summary());
    }
    if let Some(m) = metrics_file {
        m.finish()?;
    }
    Ok(())
}

fn cmd_receive(flags: HashMap<String, String>) -> Result<(), String> {
    let bind = Endpoint::parse(get(&flags, "bind")?).map_err(|e| e.to_string())?;
    let streams: u32 = get_count(&flags, "streams", 2)?;
    let resize: u16 = get_num(&flags, "resize", 0)?;
    let quiet = flags.contains_key("quiet");
    let receiver = EmlioReceiver::bind(ReceiverConfig {
        bind,
        expected_streams: streams,
        ..ReceiverConfig::loopback(streams)
    })
    .map_err(|e| e.to_string())?;
    println!(
        "receiver: bound {} expecting {streams} streams",
        receiver.endpoint()
    );
    let metrics_file = MetricsFile::spawn(
        &flags,
        vec![SampleSource::new(
            "receiver",
            receiver.metrics(),
            receiver.recorder(),
        )],
    )?;
    let t0 = std::time::Instant::now();
    let (batches, samples) = if resize > 0 {
        let pipe = PipelineBuilder::new()
            .threads(2)
            .resize(resize, resize)
            .build(Box::new(receiver.source()));
        let mut b = 0u64;
        let mut s = 0u64;
        while let Some(batch) = pipe.next_batch() {
            b += 1;
            s += batch.tensors.len() as u64;
            if !quiet && b.is_multiple_of(50) {
                println!("  {b} batches…");
            }
        }
        pipe.join();
        (b, s)
    } else {
        let mut src = receiver.source();
        let mut b = 0u64;
        let mut s = 0u64;
        while let Some(batch) = src.next_batch() {
            b += 1;
            s += batch.samples.len() as u64;
            if !quiet && b.is_multiple_of(50) {
                println!("  {b} batches…");
            }
        }
        (b, s)
    };
    let elapsed = t0.elapsed();
    println!(
        "received {batches} batches / {samples} samples in {elapsed:.2?} ({:.0} samples/s)",
        samples as f64 / elapsed.as_secs_f64().max(1e-9),
    );
    if let Some(m) = metrics_file {
        m.finish()?;
    }
    Ok(())
}

fn cmd_bench_io(flags: HashMap<String, String>) -> Result<(), String> {
    let data = get(&flags, "data")?.to_string();
    let rtt_ms: f64 = get_num(&flags, "rtt-ms", 0.0)?;
    let peer_fleet: usize = get_num(&flags, "peer-fleet", 0)?;
    let peer_timeout_ms: u64 = get_num(&flags, "peer-timeout-ms", 500)?;
    if peer_fleet == 1 {
        return Err("--peer-fleet N needs N ≥ 2 daemons to cooperate".into());
    }
    if flags.contains_key("peer-timeout-ms") && peer_fleet < 2 {
        return Err("--peer-timeout-ms requires --peer-fleet N (N ≥ 2)".into());
    }
    let config = config_from(&flags)?;
    if peer_fleet >= 2 && config.cache.is_none() {
        return Err(
            "--peer-fleet requires --cache-mb: peers serve blocks from each other's cache tiers"
                .into(),
        );
    }
    let rtt = Duration::try_from_secs_f64(rtt_ms / 1e3)
        .map_err(|_| format!("--rtt-ms: {rtt_ms} is not a round-trip time"))?;
    let profile = NetProfile::new(&format!("{rtt_ms}ms"), rtt, 1.25e9);
    let storage = if peer_fleet >= 2 {
        // One index load and one emulated mount of `data` under the whole
        // fleet, as in the contention experiment.
        let dir = std::path::Path::new(&data);
        let index = Arc::new(GlobalIndex::load_dir(dir).map_err(|e| e.to_string())?);
        let mount = NfsMount::mount(
            dir,
            profile.clone(),
            RealClock::shared(),
            NfsConfig::default(),
        );
        let peers = PeerConfig::default().with_timeout(Duration::from_millis(peer_timeout_ms));
        shared_mount_storage(&index, &mount, peer_fleet, "bench-storage-", Some(peers))
    } else {
        vec![StorageSpec::new("bench-storage-0", &data)]
    };
    // A fleet's `--rtt-ms` shapes the shared storage link, not the wire.
    let mut dep = if rtt_ms > 0.0 && peer_fleet < 2 {
        EmlioService::launch_with(&storage, &config, "bench-node", &profile)
    } else {
        EmlioService::launch(&storage, &config, "bench-node")
    }
    .map_err(|e| e.to_string())?;

    let mut sources: Vec<SampleSource> = dep
        .daemon_metrics
        .iter()
        .zip(&dep.daemon_recorders)
        .enumerate()
        .map(|(i, (m, r))| SampleSource::new(&format!("daemon-{i}"), m.clone(), r.clone()))
        .collect();
    sources.push(SampleSource::new(
        "receiver",
        dep.receiver.metrics(),
        dep.receiver.recorder(),
    ));
    let metrics_file = MetricsFile::spawn(&flags, sources)?;

    let t0 = std::time::Instant::now();
    let mut src = dep.receiver.source();
    // Counted here, not by `Deployment::drain`: `drain` FNV-hashes every
    // payload byte for its delivery fingerprint, which a bytes/s
    // measurement must not pay.
    let mut samples = 0u64;
    while let Some(b) = src.next_batch() {
        samples += b.samples.len() as u64;
    }
    dep.join_daemons().map_err(|e| e.to_string())?;
    let elapsed = t0.elapsed();
    let bytes = dep.receiver.metrics().snapshot().bytes;
    println!(
        "epoch over {} at {rtt_ms} ms RTT: {samples} samples / {} in {elapsed:.2?} ({}/s)",
        data,
        format_bytes(bytes),
        format_bytes((bytes as f64 / elapsed.as_secs_f64().max(1e-9)) as u64),
    );
    if config.cache.is_some() {
        for (i, m) in dep.daemon_metrics.iter().enumerate() {
            println!("daemon {i} {}", m.snapshot().cache_summary());
        }
    }
    if peer_fleet >= 2 {
        let peers: Vec<_> = dep
            .daemon_metrics
            .iter()
            .map(|m| m.snapshot().peer.unwrap_or_default())
            .collect();
        let hits: u64 = peers.iter().map(|p| p.hits).sum();
        let misses: u64 = peers.iter().map(|p| p.misses).sum();
        let fallbacks: u64 = peers.iter().map(|p| p.fallbacks).sum();
        let peer_bytes: u64 = peers.iter().map(|p| p.bytes_from_peers).sum();
        println!(
            "fleet: {hits} peer hits / {misses} misses / {fallbacks} fallbacks across {peer_fleet} daemons"
        );
        let sav = peer_savings(
            hits,
            peer_bytes,
            &NfsConfig::default(),
            &profile,
            DEFAULT_STORAGE_IO_WATTS,
        );
        println!(
            "fleet: {} served peer-to-peer, avoiding ~{:.3} s and ~{:.1} J of storage I/O (modeled)",
            format_bytes(sav.avoided_bytes),
            sav.avoided_secs,
            sav.avoided_joules,
        );
    }
    if let Some(m) = metrics_file {
        m.finish()?;
    }
    Ok(())
}

/// Parse a chaos seed: decimal or `0x`-prefixed hex (the harness prints
/// failing seeds in hex, so the replay command can paste them verbatim).
fn parse_seed(v: &str) -> Result<u64, String> {
    let parsed = match v.strip_prefix("0x").or_else(|| v.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => v.parse(),
    };
    parsed.map_err(|_| format!("--seed: bad value {v:?} (decimal or 0x-hex)"))
}

fn cmd_chaos(flags: HashMap<String, String>) -> Result<(), String> {
    use emlio::bench::chaos::{run_schedule, suite_seed, ChaosConfig, ChaosMode, Verdict};

    let mode_arg = flags.get("config").map(String::as_str).unwrap_or("all");
    let modes: Vec<ChaosMode> = if mode_arg == "all" {
        ChaosMode::ALL.to_vec()
    } else {
        vec![ChaosMode::from_name(mode_arg).ok_or_else(|| {
            format!("--config: bad value {mode_arg:?} (valid: cached, fleet, spill-persist, striped, all)")
        })?]
    };
    let seeds: Vec<u64> = match flags.get("seed") {
        Some(v) => vec![parse_seed(v)?],
        None => {
            let count: u64 = get_num(&flags, "seeds", 20)?;
            let base: u64 = get_num(&flags, "base-seed", 0x000C_4A05_u64)?;
            (0..count).map(|i| suite_seed(base, i)).collect()
        }
    };
    if seeds.is_empty() {
        return Err("--seeds must be positive".into());
    }

    let make = |seed: u64, mode: ChaosMode| -> Result<ChaosConfig, String> {
        let mut c = ChaosConfig::new(seed, mode);
        c.samples = get_count(&flags, "samples", c.samples)?;
        c.batch_size = get_count(&flags, "batch", c.batch_size)?;
        c.threads = get_count(&flags, "threads", c.threads)?;
        c.epochs = get_count(&flags, "epochs", c.epochs)?;
        Ok(c)
    };

    let t0 = std::time::Instant::now();
    let (mut clean, mut detectable) = (0u64, 0u64);
    let (mut faults, mut retries, mut giveups, mut kills) = (0u64, 0u64, 0u64, 0u64);
    for &seed in &seeds {
        for &mode in &modes {
            let out = run_schedule(&make(seed, mode)?).map_err(|violation| {
                format!("{violation}\nreplay: emlio chaos --seed {seed:#x} --config {mode}")
            })?;
            println!("{out}");
            match out.verdict {
                Verdict::Clean => clean += 1,
                Verdict::DetectableError(_) => detectable += 1,
            }
            faults += out.injected_total();
            retries += out.io_retries;
            giveups += out.io_giveups;
            kills += out.kills;
        }
    }
    println!(
        "chaos: {} schedules in {:.2?} — {clean} clean, {detectable} detectable errors, \
         0 silent corruptions; {faults} faults injected, {kills} daemon kills, \
         {retries} retries absorbed ({giveups} give-ups)",
        seeds.len() * modes.len(),
        t0.elapsed(),
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(words: &[&str]) -> Vec<String> {
        words.iter().map(|w| w.to_string()).collect()
    }

    /// `bench-io`'s flags through to the daemon config, as `run` does it.
    fn bench_io_config(words: &[&str]) -> Result<EmlioConfig, String> {
        let accepted = [BENCH_IO_FLAGS, CONFIG_FLAGS, METRICS_FLAGS];
        config_from(&parse_flags(&line(words), &accepted)?)
    }

    #[test]
    fn unknown_flag_is_an_error_that_lists_the_accepted_ones() {
        // The typo that used to run uncached and print numbers.
        let err = run(&line(&["bench-io", "--data", "D", "--cahce-mb", "256"])).unwrap_err();
        assert!(err.contains("unknown flag --cahce-mb"), "{err}");
        assert!(
            err.contains("--cache-mb") && err.contains("--log-level"),
            "{err}"
        );
        // A flag of another command is unknown to this one.
        let err = run(&line(&["convert", "--out", "D", "--threads", "2"])).unwrap_err();
        assert!(err.contains("unknown flag --threads"), "{err}");
        let err = run(&line(&["report", "stray"])).unwrap_err();
        assert!(err.contains("unexpected argument \"stray\""), "{err}");
    }

    #[test]
    fn removed_flags_are_errors_naming_the_flag() {
        for (flag, value) in [
            ("--spill-policy", "drop"),
            ("--prefetch-staging", "0"),
            ("--cache-policy", "lru"),
            ("--warm-start", "32"),
            ("--spill-queue", "8"),
            ("--prefetch", "0"),
        ] {
            for cmd in ["daemon", "bench-io"] {
                let err = run(&line(&[
                    cmd,
                    "--data",
                    "D",
                    "--cache-mb",
                    "64",
                    flag,
                    value,
                ]))
                .unwrap_err();
                assert!(err.contains(&format!("unknown flag {flag}")), "{err}");
            }
        }
    }

    #[test]
    fn an_rtt_that_is_no_duration_is_an_error_naming_the_flag() {
        for value in ["-5", "nan", "inf"] {
            let err = run(&line(&["bench-io", "--data", "D", "--rtt-ms", value])).unwrap_err();
            assert!(err.contains("--rtt-ms"), "{err}");
        }
    }

    #[test]
    fn zero_counts_are_errors_naming_the_flag() {
        let dir = emlio::util::testutil::TempDir::new("cli-zero-counts");
        let out = dir.path().to_str().unwrap();
        let connect = ["--connect", "tcp://127.0.0.1:9"];
        let mut cases: Vec<(Vec<&str>, &str)> = Vec::new();
        for flag in ["--batch", "--threads", "--epochs"] {
            cases.push((vec!["bench-io", "--data", "D", flag, "0"], flag));
            cases.push((
                [&["daemon", "--data", "D", flag, "0"], &connect[..]].concat(),
                flag,
            ));
        }
        for flag in ["--batch", "--threads", "--epochs", "--samples"] {
            cases.push((vec!["chaos", "--seeds", "1", flag, "0"], flag));
        }
        for flag in ["--shards", "--samples"] {
            cases.push((vec!["convert", "--out", out, flag, "0"], flag));
        }
        cases.push((
            vec!["receive", "--bind", "tcp://127.0.0.1:0", "--streams", "0"],
            "--streams",
        ));
        for (words, flag) in cases {
            let err = run(&line(&words)).unwrap_err();
            assert!(
                err.contains(&format!("{flag} must be at least 1")),
                "{words:?}: {err}"
            );
        }
    }

    #[test]
    fn an_empty_dataset_is_an_error_naming_the_directory() {
        use emlio::datagen::convert::build_tfrecord_dataset;
        let dir = emlio::util::testutil::TempDir::new("cli-empty-dataset");
        let spec = DatasetSpec::tiny("empty", 0);
        build_tfrecord_dataset(dir.path(), &spec, ShardSpec::Count(1)).unwrap();
        let data = dir.path().to_str().unwrap();
        for words in [
            vec!["bench-io", "--data", data],
            vec!["bench-io", "--data", data, "--rtt-ms", "5"],
            vec!["daemon", "--data", data, "--connect", "tcp://127.0.0.1:9"],
        ] {
            let err = run(&line(&words)).unwrap_err();
            assert!(
                err.contains(&format!("{data} holds no records")),
                "{words:?}: {err}"
            );
        }
    }

    #[test]
    fn cache_flags_without_a_cache_are_errors_not_no_ops() {
        // It used to be dropped when `--cache-mb` was absent.
        let err = bench_io_config(&["--cache-disk-mb", "64"]).unwrap_err();
        assert!(err.contains("--cache-disk-mb requires --cache-mb"), "{err}");
    }

    #[test]
    fn cache_persist_needs_a_cache_with_a_disk_tier() {
        let err = bench_io_config(&["--cache-persist", "P"]).unwrap_err();
        assert!(err.contains("--cache-persist requires --cache-mb"), "{err}");
        let words = ["--cache-mb", "8", "--cache-persist", "P"];
        let err = bench_io_config(&[&words[..], &["--cache-disk-mb", "0"]].concat()).unwrap_err();
        assert!(
            err.contains("--cache-persist requires a disk tier"),
            "{err}"
        );
        // Left unsaid, the disk tier defaults to the RAM tier's size.
        let cache = bench_io_config(&words).unwrap().cache.unwrap();
        assert_eq!(cache.persist_dir, Some("P".into()));
        assert_eq!((cache.ram_bytes, cache.disk_bytes), (8 << 20, 8 << 20));
    }

    #[test]
    fn io_backoff_needs_io_retries() {
        let err = bench_io_config(&["--io-backoff-ms", "5"]).unwrap_err();
        assert!(
            err.contains("--io-backoff-ms requires --io-retries"),
            "{err}"
        );
        let config = bench_io_config(&["--io-retries", "2", "--io-backoff-ms", "7"]).unwrap();
        assert_eq!(config.io_retries, 2);
        assert_eq!(config.io_backoff, Duration::from_millis(7));
    }
}
