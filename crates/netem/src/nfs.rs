//! An NFSv4-like remote-filesystem client model.
//!
//! The baselines (PyTorch DataLoader, DALI) read training samples as files
//! over an NFSv4 mount (§5.1). What makes them collapse at 10–30 ms RTT is
//! the *per-file operation cost*: every sample access pays compound
//! LOOKUP/OPEN, one READ round trip per `rsize` chunk, GETATTR revalidation,
//! and CLOSE. This module reproduces that cost structure over a local
//! directory: data bytes are read from real files; latency is slept on the
//! mount's [`RealClock`](emlio_util::clock::RealClock), and link bandwidth
//! is one wire *shared by every handle cloned from the same mount* (one
//! wire per mount, as in reality). The wire is charged by the proxy's
//! delay-line rule, [`NetProfile::reserve`]: a transfer reserves its slot
//! under the mount's lock and sleeps to the slot's end outside it.
//!
//! The same constants feed the discrete-event testbed through
//! [`NfsConfig::read_cost`], which counts READ waves with the helper the
//! mount charges by ([`NfsConfig::read_waves`]), so real-runtime examples
//! and virtual-time experiments use one cost model.

use crate::profile::NetProfile;
use emlio_util::clock::SharedClock;
use emlio_util::fault::{site, FaultDecision, FaultInjector};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

/// Tunable NFS client parameters (defaults match a stock Linux NFSv4 mount).
#[derive(Debug, Clone)]
pub struct NfsConfig {
    /// Maximum bytes per READ round trip (`rsize`).
    pub rsize: u64,
    /// Round trips charged to open a file (compound LOOKUP+OPEN, GETATTR).
    pub open_rtts: f64,
    /// Round trips charged to close (CLOSE).
    pub close_rtts: f64,
    /// Concurrent in-flight READs (client readahead) for multi-chunk files.
    pub readahead: u32,
    /// How long attribute cache entries suppress repeat metadata round trips.
    pub attr_cache_timeout: Duration,
}

impl Default for NfsConfig {
    fn default() -> Self {
        NfsConfig {
            rsize: 1 << 20,
            open_rtts: 2.0,
            close_rtts: 1.0,
            readahead: 2,
            attr_cache_timeout: Duration::from_secs(3),
        }
    }
}

impl NfsConfig {
    /// The READ round trips of one `bytes`-long transfer, as
    /// `(chunks, waves)`: its `rsize` chunks (at least one), `readahead` of
    /// them in flight per round trip.
    pub fn read_waves(&self, bytes: u64) -> (u64, u64) {
        let chunks = bytes.div_ceil(self.rsize).max(1);
        (chunks, chunks.div_ceil(self.readahead.max(1) as u64))
    }

    /// Pure cost model: wall time to read one whole `bytes`-long file that is
    /// *not* in the attribute cache, excluding bandwidth contention.
    ///
    /// `open + ceil(chunks / readahead) · RTT + bytes / bandwidth + close`
    pub fn read_cost(&self, bytes: u64, profile: &NetProfile) -> Duration {
        let (_, read_waves) = self.read_waves(bytes);
        let rtts = self.open_rtts + read_waves as f64 + self.close_rtts;
        Duration::from_secs_f64(
            rtts * profile.rtt.as_secs_f64() + bytes as f64 / profile.bandwidth_bps,
        )
    }
}

/// Cumulative operation counters (for tests and reports).
#[derive(Debug, Default)]
pub struct NfsStats {
    /// Files opened.
    pub opens: AtomicU64,
    /// READ round trips issued.
    pub reads: AtomicU64,
    /// Data bytes transferred.
    pub bytes_read: AtomicU64,
    /// Metadata round trips suppressed by the attribute cache.
    pub attr_cache_hits: AtomicU64,
}

struct MountShared {
    root: PathBuf,
    profile: NetProfile,
    config: NfsConfig,
    clock: SharedClock,
    /// When the wire has serialized every transfer reserved so far (clock
    /// nanos).
    link_free: Mutex<u64>,
    attr_cache: Mutex<HashMap<PathBuf, u64>>, // path → expiry nanos
    stats: NfsStats,
    /// Seeded chaos hook: consulted at `nfs.open` / `nfs.read` when set.
    injector: OnceLock<Arc<FaultInjector>>,
}

/// A handle to an emulated NFS mount. Clones share the connection (and its
/// bandwidth), like threads sharing one kernel mount.
#[derive(Clone)]
pub struct NfsMount {
    shared: Arc<MountShared>,
}

impl NfsMount {
    /// Mount `root` over a link with `profile` characteristics.
    pub fn mount(
        root: &Path,
        profile: NetProfile,
        clock: SharedClock,
        config: NfsConfig,
    ) -> NfsMount {
        NfsMount {
            shared: Arc::new(MountShared {
                root: root.to_path_buf(),
                profile,
                config,
                clock,
                link_free: Mutex::new(0),
                attr_cache: Mutex::new(HashMap::new()),
                stats: NfsStats::default(),
                injector: OnceLock::new(),
            }),
        }
    }

    /// Replay `injector` at this mount's failpoints:
    /// [`site::NFS_OPEN`] (mount stall or open failure, consulted by
    /// [`NfsMount::open_file`]) and [`site::NFS_READ`] (per-read I/O
    /// error, latency spike, or short read, consulted by
    /// [`NfsFile::read_range_into`]). First call wins; every clone of the
    /// mount shares the hook.
    pub fn set_fault_injector(&self, injector: Arc<FaultInjector>) {
        let _ = self.shared.injector.set(injector);
    }

    /// This mount's decision at `site` (clear when no injector is set).
    /// Latency decisions stall on the mount's clock right here — a stalled
    /// mount blocks the caller exactly like a wedged kernel mount — and
    /// the (possibly downgraded) decision is returned for the caller to
    /// apply.
    fn consult(&self, fault_site: &str) -> FaultDecision {
        let Some(inj) = self.shared.injector.get() else {
            return FaultDecision::None;
        };
        let decision = inj.decide(fault_site);
        if let FaultDecision::Latency(d) = decision {
            self.shared.clock.sleep_nanos(d.as_nanos() as u64);
            return FaultDecision::None;
        }
        decision
    }

    /// The local directory backing the mount.
    pub fn root(&self) -> &Path {
        &self.shared.root
    }

    /// Operation counters.
    pub fn stats(&self) -> &NfsStats {
        &self.shared.stats
    }

    fn charge_rtts(&self, rtts: f64) {
        let nanos = (rtts * self.shared.profile.rtt.as_nanos() as f64) as u64;
        if nanos > 0 {
            self.shared.clock.sleep_nanos(nanos);
        }
    }

    /// Charge one READ of `len` bytes: its waves' round trips, then its
    /// slot on the shared wire, reserved under the lock and slept to
    /// outside it.
    fn charge_read(&self, len: u64) {
        let shared = &*self.shared;
        let (chunks, waves) = shared.config.read_waves(len);
        shared.stats.reads.fetch_add(chunks, Ordering::Relaxed);
        self.charge_rtts(waves as f64);
        let clock = &shared.clock;
        let (mut link_free, now) = (shared.link_free.lock(), clock.now_nanos());
        let sent = shared.profile.reserve(&mut link_free, now, len);
        drop(link_free);
        clock.sleep_nanos(sent.saturating_sub(clock.now_nanos()));
        shared.stats.bytes_read.fetch_add(len, Ordering::Relaxed);
    }

    /// Whether a metadata round trip is needed for `path`, updating the
    /// cache either way.
    fn attr_check(&self, path: &Path) -> bool {
        let now = self.shared.clock.now_nanos();
        let timeout = self.shared.config.attr_cache_timeout.as_nanos() as u64;
        let mut cache = self.shared.attr_cache.lock();
        match cache.get(path) {
            Some(&expiry) if expiry > now => {
                self.shared
                    .stats
                    .attr_cache_hits
                    .fetch_add(1, Ordering::Relaxed);
                false
            }
            _ => {
                cache.insert(path.to_path_buf(), now + timeout);
                true
            }
        }
    }

    /// Read an entire file with full NFS cost accounting: OPEN, one
    /// positioned read of the whole file, CLOSE. This is the baseline
    /// loaders' per-sample hot path.
    pub fn read_file(&self, rel: &Path) -> io::Result<Vec<u8>> {
        let file = self.open_file(rel)?;
        let mut data = Vec::new();
        file.read_range_into(0, file.file.metadata()?.len(), &mut data)?;
        self.charge_rtts(self.shared.config.close_rtts);
        Ok(data)
    }

    /// Open `rel` once, paying the compound LOOKUP+OPEN cost up front, and
    /// return a handle whose positioned reads charge only READ-wave round
    /// trips (plus GETATTR revalidation when the attribute cache entry
    /// expires). This is the open-once/read-many shape a block reader gets
    /// by holding one handle per shard instead of re-opening per block.
    pub fn open_file(&self, rel: &Path) -> io::Result<NfsFile> {
        if self.consult(site::NFS_OPEN) == FaultDecision::Error {
            return Err(io::Error::other(format!(
                "injected fault at {} ({})",
                site::NFS_OPEN,
                rel.display()
            )));
        }
        let full = self.shared.root.join(rel);
        let cfg = &self.shared.config;
        let open_rtts = if self.attr_check(&full) {
            cfg.open_rtts
        } else {
            // Attr-cached: the GETATTR leg of the compound is suppressed.
            (cfg.open_rtts - 1.0).max(0.0)
        };
        self.shared.stats.opens.fetch_add(1, Ordering::Relaxed);
        self.charge_rtts(open_rtts);
        let file = std::fs::File::open(&full)?;
        Ok(NfsFile {
            mount: self.clone(),
            file,
            path: full,
        })
    }
}

/// An opened file over an [`NfsMount`]: the per-file open cost was paid by
/// [`NfsMount::open_file`]; each [`NfsFile::read_range_into`] pays only data
/// round trips and bandwidth. Dropping the handle models CLOSE as free —
/// delegations make the close round trip asynchronous in practice, and the
/// block read path holds its handles for the process lifetime anyway.
pub struct NfsFile {
    mount: NfsMount,
    file: std::fs::File,
    path: PathBuf,
}

impl NfsFile {
    /// Positioned read through the held handle: READ waves + bandwidth,
    /// plus one GETATTR round trip when the attribute cache entry has
    /// expired (close-to-open consistency revalidation). The bytes land
    /// in `buf`, whose length becomes that of the read. Whatever `buf`
    /// held is overwritten, not cleared first: a recycled buffer already
    /// that long is not zero-filled under the read.
    pub fn read_range_into(&self, offset: u64, len: u64, buf: &mut Vec<u8>) -> io::Result<()> {
        let len = match self.mount.consult(site::NFS_READ) {
            FaultDecision::Error => {
                return Err(io::Error::other(format!(
                    "injected fault at {} ({})",
                    site::NFS_READ,
                    self.path.display()
                )))
            }
            // A torn transfer: serve only the front half of the range, so
            // downstream framing/CRC checks must flag the truncation.
            FaultDecision::ShortRead => len / 2,
            _ => len,
        };
        if self.mount.attr_check(&self.path) {
            self.mount.charge_rtts(1.0);
        }
        buf.resize(len as usize, 0);
        read_at(&self.file, buf, offset)?;
        self.mount.charge_read(len);
        Ok(())
    }
}

#[cfg(unix)]
fn read_at(file: &std::fs::File, buf: &mut [u8], offset: u64) -> io::Result<()> {
    use std::os::unix::fs::FileExt;
    file.read_exact_at(buf, offset)
}

#[cfg(not(unix))]
fn read_at(file: &std::fs::File, buf: &mut [u8], offset: u64) -> io::Result<()> {
    use std::io::{Read, Seek, SeekFrom};
    let mut f = file.try_clone()?;
    f.seek(SeekFrom::Start(offset))?;
    f.read_exact(buf)
}

#[cfg(test)]
mod tests {
    use super::*;
    use emlio_util::clock::RealClock;
    use emlio_util::testutil::TempDir;

    fn setup(rtt_ms: u64) -> (TempDir, NfsMount) {
        let dir = TempDir::new("netem-nfs");
        std::fs::write(dir.file("a.bin"), vec![1u8; 4096]).unwrap();
        std::fs::write(dir.file("b.bin"), vec![2u8; 3 << 20]).unwrap();
        let profile = NetProfile::new("test", Duration::from_millis(rtt_ms), 1.25e9);
        let mount = NfsMount::mount(
            dir.path(),
            profile,
            RealClock::shared(),
            NfsConfig::default(),
        );
        (dir, mount)
    }

    #[test]
    fn read_cost_model_math() {
        let cfg = NfsConfig::default();
        let lan10 = NetProfile::lan_10ms();
        // 0.1 MB file: open(2) + 1 read wave + close(1) = 4 RTTs = 40ms + xfer.
        let c = cfg.read_cost(100 << 10, &lan10);
        assert!((c.as_secs_f64() - (0.040 + (100 << 10) as f64 / 1.25e9)).abs() < 1e-6);
        // 2 MB file: 2 chunks, readahead 2 → 1 wave → still 4 RTTs.
        let c2 = cfg.read_cost(2 << 20, &lan10);
        assert!(c2 > c);
        // 5 MB: 5 chunks → 3 waves → 6 RTTs.
        let c5 = cfg.read_cost(5 << 20, &lan10);
        assert!((c5.as_secs_f64() - (0.060 + (5 << 20) as f64 / 1.25e9)).abs() < 1e-6);
    }

    #[test]
    fn small_file_charges_rtts() {
        let (_d, mount) = setup(5);
        let t0 = std::time::Instant::now();
        let data = mount.read_file(Path::new("a.bin")).unwrap();
        let elapsed = t0.elapsed();
        assert_eq!(data.len(), 4096);
        // open(2) + read(1) + close(1) = 4 RTTs = 20 ms.
        assert!(
            elapsed >= Duration::from_millis(18),
            "expected ≥ ~20ms, got {elapsed:?}"
        );
        assert_eq!(mount.stats().opens.load(Ordering::Relaxed), 1);
        assert_eq!(mount.stats().reads.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn attr_cache_suppresses_metadata() {
        let (_d, mount) = setup(0);
        mount.open_file(Path::new("a.bin")).unwrap();
        mount.open_file(Path::new("a.bin")).unwrap();
        assert_eq!(mount.stats().attr_cache_hits.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn reads_larger_than_rsize_carry_the_stated_rate() {
        // Two handles on one mount, each on its own thread, reading 3 MiB
        // ranges (three `rsize` chunks) over one 64 MiB/s wire with no RTT:
        // the wire carries its stated rate and no more.
        let dir = TempDir::new("netem-nfs-rate");
        std::fs::write(dir.file("c.bin"), vec![3u8; 3 << 20]).unwrap();
        let bandwidth = 64.0 * (1 << 20) as f64;
        let profile = NetProfile::new("test", Duration::ZERO, bandwidth);
        let config = NfsConfig::default();
        let mount = NfsMount::mount(dir.path(), profile, RealClock::shared(), config);
        let t0 = std::time::Instant::now();
        std::thread::scope(|s| {
            for _ in 0..2 {
                let file = mount.open_file(Path::new("c.bin")).unwrap();
                s.spawn(move || {
                    let mut buf = Vec::new();
                    for _ in 0..3 {
                        file.read_range_into(0, 3 << 20, &mut buf).unwrap();
                    }
                });
            }
        });
        let elapsed = t0.elapsed().as_secs_f64();
        let stated = (6 * (3 << 20)) as f64 / bandwidth;
        assert!(
            elapsed >= 0.95 * stated,
            "{elapsed:.3} s for what takes {stated:.3} s at the stated rate"
        );
    }

    #[test]
    fn multi_chunk_reads_counted() {
        let (_d, mount) = setup(0);
        let data = mount.read_file(Path::new("b.bin")).unwrap();
        assert_eq!(data.len(), 3 << 20);
        assert_eq!(mount.stats().reads.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn open_file_pays_open_once_across_range_reads() {
        let (_d, mount) = setup(0);
        let f = mount.open_file(Path::new("b.bin")).unwrap();
        for i in 0..10u64 {
            let mut data = Vec::new();
            f.read_range_into(i * 1000, 1000, &mut data).unwrap();
            assert!(data.iter().all(|&b| b == 2));
        }
        // One OPEN for ten positioned reads.
        assert_eq!(mount.stats().opens.load(Ordering::Relaxed), 1);
        assert_eq!(mount.stats().reads.load(Ordering::Relaxed), 10);
        assert_eq!(mount.stats().bytes_read.load(Ordering::Relaxed), 10_000);
    }

    #[test]
    fn missing_file_is_io_error() {
        let (_d, mount) = setup(0);
        assert!(mount.read_file(Path::new("missing.bin")).is_err());
    }

    #[test]
    fn fault_hooks_fire_at_open_and_read() {
        use emlio_util::fault::{FaultPlan, FaultSpec};

        // Every open fails, every positioned read is short.
        let (_d, mount) = setup(0);
        mount.set_fault_injector(FaultInjector::new(
            FaultPlan::new(11)
                .with_site(site::NFS_OPEN, FaultSpec::errors(1.0))
                .with_site(site::NFS_READ, FaultSpec::short_reads(1.0)),
        ));
        let err = match mount.open_file(Path::new("a.bin")) {
            Err(e) => e,
            Ok(_) => panic!("open must fail under an always-error plan"),
        };
        assert!(err.to_string().contains("nfs.open"));

        // A mount without open faults, but short reads: handle opens fine,
        // reads return half the requested range.
        let (_d2, mount2) = setup(0);
        mount2.set_fault_injector(FaultInjector::new(
            FaultPlan::new(11).with_site(site::NFS_READ, FaultSpec::short_reads(1.0)),
        ));
        let f = mount2.open_file(Path::new("b.bin")).unwrap();
        let mut buf = Vec::new();
        f.read_range_into(0, 4096, &mut buf).unwrap();
        assert_eq!(buf.len(), 2048);

        // A clear injector leaves the mount untouched.
        let (_d3, mount3) = setup(0);
        mount3.set_fault_injector(FaultInjector::new(FaultPlan::new(11)));
        let f = mount3.open_file(Path::new("a.bin")).unwrap();
        f.read_range_into(0, 100, &mut buf).unwrap();
        assert_eq!(buf.len(), 100);
    }

    #[test]
    fn shared_bandwidth_across_clones() {
        let (_d, mount) = setup(0);
        let m2 = mount.clone();
        // Same Arc — stats observed from either handle.
        m2.read_file(Path::new("a.bin")).unwrap();
        assert_eq!(mount.stats().opens.load(Ordering::Relaxed), 1);
    }
}
