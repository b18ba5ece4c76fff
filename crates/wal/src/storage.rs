//! Segment storage: the [`Storage`] trait, the production
//! [`FileStorage`] backend, and the crash-simulating [`SimStorage`]
//! used by the deterministic crash-at-every-tick tests.

use std::collections::BTreeMap;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Write as _};
use std::path::PathBuf;

use parking_lot::Mutex;

/// Where WAL segments live. Object-safe so the writer, the group
/// committer, and recovery are all generic over real files vs. the
/// crash simulator.
///
/// Segment *ids* are the first LSN a segment holds; listing order is
/// ascending id, which is also LSN order.
pub trait Storage: Send + Sync {
    /// All segment ids, ascending.
    fn list_segments(&self) -> io::Result<Vec<u64>>;
    /// The full durable contents of a segment.
    fn read_segment(&self, id: u64) -> io::Result<Vec<u8>>;
    /// Create (or truncate to empty) a segment, durably.
    fn create_segment(&self, id: u64) -> io::Result<()>;
    /// Append bytes to the end of a segment.
    fn append(&self, id: u64, bytes: &[u8]) -> io::Result<()>;
    /// Make every appended byte of the segment durable.
    fn sync(&self, id: u64) -> io::Result<()>;
    /// Chop a segment to `len` bytes, durably (recovery discards torn
    /// tails this way). Never extends.
    fn truncate_segment(&self, id: u64, len: u64) -> io::Result<()>;
    /// Remove a segment durably (rotation below a snapshot watermark,
    /// or corrupt successors during recovery).
    fn delete_segment(&self, id: u64) -> io::Result<()>;
}

/// Real files in one directory: `{first_lsn:020}.wal` per segment.
/// Creations and deletions fsync the directory so the namespace
/// survives a crash along with the data.
#[derive(Debug)]
pub struct FileStorage {
    dir: PathBuf,
    /// Cached append handle for the hot segment, so a leader does
    /// not reopen the file once per batch.
    active: Mutex<Option<(u64, File)>>,
}

impl FileStorage {
    /// Open (creating if needed) the segment directory.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<FileStorage> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        Ok(FileStorage {
            dir,
            active: Mutex::new(None),
        })
    }

    fn seg_path(&self, id: u64) -> PathBuf {
        self.dir.join(format!("{id:020}.wal"))
    }

    fn sync_dir(&self) -> io::Result<()> {
        // Windows cannot fsync a directory handle; rename durability
        // is weaker there and this becomes a no-op.
        #[cfg(unix)]
        File::open(&self.dir)?.sync_all()?;
        Ok(())
    }

    fn drop_cached(&self, id: u64) {
        let mut active = self.active.lock();
        if matches!(*active, Some((aid, _)) if aid == id) {
            *active = None;
        }
    }
}

impl Storage for FileStorage {
    fn list_segments(&self) -> io::Result<Vec<u64>> {
        let mut ids = Vec::new();
        for entry in fs::read_dir(&self.dir)? {
            let name = entry?.file_name();
            let Some(name) = name.to_str() else { continue };
            let Some(stem) = name.strip_suffix(".wal") else {
                continue;
            };
            if let Ok(id) = stem.parse::<u64>() {
                ids.push(id);
            }
        }
        ids.sort_unstable();
        Ok(ids)
    }

    fn read_segment(&self, id: u64) -> io::Result<Vec<u8>> {
        fs::read(self.seg_path(id))
    }

    fn create_segment(&self, id: u64) -> io::Result<()> {
        let file = File::create(self.seg_path(id))?;
        file.sync_all()?;
        self.sync_dir()?;
        *self.active.lock() = Some((id, file));
        Ok(())
    }

    fn append(&self, id: u64, bytes: &[u8]) -> io::Result<()> {
        let mut active = self.active.lock();
        if let Some((aid, file)) = active.as_mut() {
            if *aid == id {
                return file.write_all(bytes);
            }
        }
        let mut file = OpenOptions::new().append(true).open(self.seg_path(id))?;
        file.write_all(bytes)?;
        *active = Some((id, file));
        Ok(())
    }

    fn sync(&self, id: u64) -> io::Result<()> {
        let active = self.active.lock();
        if let Some((aid, file)) = active.as_ref() {
            if *aid == id {
                return file.sync_data();
            }
        }
        OpenOptions::new()
            .write(true)
            .open(self.seg_path(id))?
            .sync_data()
    }

    fn truncate_segment(&self, id: u64, len: u64) -> io::Result<()> {
        self.drop_cached(id);
        let file = OpenOptions::new().write(true).open(self.seg_path(id))?;
        file.set_len(len)?;
        file.sync_data()
    }

    fn delete_segment(&self, id: u64) -> io::Result<()> {
        self.drop_cached(id);
        fs::remove_file(self.seg_path(id))?;
        self.sync_dir()
    }
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn crash_err() -> io::Error {
    io::Error::other("simulated storage crash (SimStorage kill switch fired)")
}

#[derive(Debug, Default)]
struct SimSegment {
    /// Everything written, durable or not.
    data: Vec<u8>,
    /// Bytes guaranteed to survive a crash (advanced by `sync`).
    durable_len: usize,
}

#[derive(Debug)]
struct SimInner {
    segs: BTreeMap<u64, SimSegment>,
    /// Storage operations performed so far (every trait method counts
    /// one — the crash test's notion of a "tick").
    ops: u64,
    /// 1-based op number at which the simulated machine dies.
    kill_at: Option<u64>,
    crashed: bool,
    torn_seed: u64,
}

/// In-memory [`Storage`] with a crash switch.
///
/// Every trait method counts one *op*. Arming the switch at op `N`
/// makes op `N` fail with an I/O error and "kills the machine": all
/// later ops fail until [`reboot`](SimStorage::reboot). At the crash,
/// each segment keeps its synced bytes plus a seed-derived prefix of
/// its un-synced tail — modelling both a SIGKILL (page cache survives)
/// and a power cut mid-write (torn tail). Synced bytes always survive,
/// so an acknowledged commit can never be lost.
#[derive(Debug)]
pub struct SimStorage {
    inner: Mutex<SimInner>,
}

impl SimStorage {
    /// Fresh empty storage; `torn_seed` drives how much of each
    /// un-synced tail survives a crash.
    pub fn new(torn_seed: u64) -> SimStorage {
        SimStorage {
            inner: Mutex::new(SimInner {
                segs: BTreeMap::new(),
                ops: 0,
                kill_at: None,
                crashed: false,
                torn_seed,
            }),
        }
    }

    /// Total storage ops performed so far (the tick count).
    pub fn op_count(&self) -> u64 {
        self.inner.lock().ops
    }

    /// Arm the kill switch: the `at_op`-th op from now-zero (1-based,
    /// absolute) fails and crashes the store.
    pub fn arm_kill(&self, at_op: u64) {
        self.inner.lock().kill_at = Some(at_op);
    }

    /// Whether the simulated machine is down.
    pub fn crashed(&self) -> bool {
        self.inner.lock().crashed
    }

    /// Bring the machine back up: ops work again, the op counter and
    /// kill switch reset. Volatile state was already discarded at the
    /// moment of the crash.
    pub fn reboot(&self) {
        let mut inner = self.inner.lock();
        inner.crashed = false;
        inner.kill_at = None;
        inner.ops = 0;
    }

    /// Raw bytes of a segment as a crash would leave them *if it
    /// happened right now* — test-only visibility.
    pub fn dump_segment(&self, id: u64) -> Option<Vec<u8>> {
        self.inner.lock().segs.get(&id).map(|s| s.data.clone())
    }

    fn tick(inner: &mut SimInner) -> io::Result<()> {
        if inner.crashed {
            return Err(crash_err());
        }
        inner.ops += 1;
        if inner.kill_at == Some(inner.ops) {
            Self::crash_now(inner);
            return Err(crash_err());
        }
        Ok(())
    }

    /// The machine dies: each segment keeps its durable bytes plus a
    /// seed-derived prefix of whatever was sitting in the page cache.
    fn crash_now(inner: &mut SimInner) {
        inner.crashed = true;
        let mut h = inner.torn_seed ^ inner.ops.rotate_left(17);
        for (id, seg) in &mut inner.segs {
            let volatile = seg.data.len() - seg.durable_len;
            let keep = if volatile == 0 {
                0
            } else {
                (splitmix64(&mut h).wrapping_add(*id) as usize) % (volatile + 1)
            };
            seg.data.truncate(seg.durable_len + keep);
            seg.durable_len = seg.data.len();
        }
    }
}

impl Storage for SimStorage {
    fn list_segments(&self) -> io::Result<Vec<u64>> {
        let mut inner = self.inner.lock();
        Self::tick(&mut inner)?;
        Ok(inner.segs.keys().copied().collect())
    }

    fn read_segment(&self, id: u64) -> io::Result<Vec<u8>> {
        let mut inner = self.inner.lock();
        Self::tick(&mut inner)?;
        inner
            .segs
            .get(&id)
            .map(|s| s.data.clone())
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, format!("no segment {id}")))
    }

    fn create_segment(&self, id: u64) -> io::Result<()> {
        let mut inner = self.inner.lock();
        Self::tick(&mut inner)?;
        inner.segs.insert(id, SimSegment::default());
        Ok(())
    }

    fn append(&self, id: u64, bytes: &[u8]) -> io::Result<()> {
        let mut inner = self.inner.lock();
        if inner.crashed {
            return Err(crash_err());
        }
        inner.ops += 1;
        let killed = inner.kill_at == Some(inner.ops);
        let Some(seg) = inner.segs.get_mut(&id) else {
            return Err(io::Error::new(
                io::ErrorKind::NotFound,
                format!("no segment {id}"),
            ));
        };
        // The bytes land in the (volatile) page cache even on the
        // crashing op — crash_now then decides how much of the torn
        // tail happens to be on disk.
        seg.data.extend_from_slice(bytes);
        if killed {
            Self::crash_now(&mut inner);
            return Err(crash_err());
        }
        Ok(())
    }

    fn sync(&self, id: u64) -> io::Result<()> {
        let mut inner = self.inner.lock();
        Self::tick(&mut inner)?;
        match inner.segs.get_mut(&id) {
            Some(seg) => {
                seg.durable_len = seg.data.len();
                Ok(())
            }
            None => Err(io::Error::new(
                io::ErrorKind::NotFound,
                format!("no segment {id}"),
            )),
        }
    }

    fn truncate_segment(&self, id: u64, len: u64) -> io::Result<()> {
        let mut inner = self.inner.lock();
        Self::tick(&mut inner)?;
        match inner.segs.get_mut(&id) {
            Some(seg) => {
                let len = usize::try_from(len).unwrap_or(usize::MAX);
                if len < seg.data.len() {
                    seg.data.truncate(len);
                }
                seg.durable_len = seg.durable_len.min(seg.data.len());
                Ok(())
            }
            None => Err(io::Error::new(
                io::ErrorKind::NotFound,
                format!("no segment {id}"),
            )),
        }
    }

    fn delete_segment(&self, id: u64) -> io::Result<()> {
        let mut inner = self.inner.lock();
        Self::tick(&mut inner)?;
        if inner.segs.remove(&id).is_none() {
            return Err(io::Error::new(
                io::ErrorKind::NotFound,
                format!("no segment {id}"),
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn file_storage_round_trip() {
        let dir = std::env::temp_dir().join(format!("txboost-wal-fs-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let fs_store = FileStorage::open(&dir).unwrap();
        assert!(fs_store.list_segments().unwrap().is_empty());
        fs_store.create_segment(5).unwrap();
        fs_store.append(5, b"hello ").unwrap();
        fs_store.append(5, b"world").unwrap();
        fs_store.sync(5).unwrap();
        assert_eq!(fs_store.read_segment(5).unwrap(), b"hello world");
        fs_store.truncate_segment(5, 5).unwrap();
        assert_eq!(fs_store.read_segment(5).unwrap(), b"hello");
        fs_store.create_segment(2).unwrap();
        assert_eq!(fs_store.list_segments().unwrap(), vec![2, 5]);
        fs_store.delete_segment(5).unwrap();
        assert_eq!(fs_store.list_segments().unwrap(), vec![2]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn sim_crash_keeps_durable_bytes() {
        for seed in 0..32 {
            let sim = SimStorage::new(seed);
            sim.create_segment(1).unwrap();
            sim.append(1, b"durable!").unwrap();
            sim.sync(1).unwrap();
            sim.append(1, b"volatile").unwrap();
            // ops so far: create, append, sync, append = 4; kill op 5.
            sim.arm_kill(5);
            assert!(sim.sync(1).is_err());
            assert!(sim.crashed());
            assert!(sim.append(1, b"x").is_err());
            sim.reboot();
            let data = sim.read_segment(1).unwrap();
            assert!(data.len() >= 8, "synced prefix lost: {data:?}");
            assert_eq!(&data[..8], b"durable!");
            assert!(data.len() <= 16);
            assert!(b"durable!volatile".starts_with(&data[..]));
        }
    }

    #[test]
    fn sim_crash_on_append_can_tear_the_write() {
        let mut seen_torn = false;
        let mut seen_full = false;
        for seed in 0..64 {
            let sim = SimStorage::new(seed);
            sim.create_segment(1).unwrap();
            sim.arm_kill(2);
            assert!(sim.append(1, b"0123456789").is_err());
            sim.reboot();
            let data = sim.read_segment(1).unwrap();
            assert!(b"0123456789".starts_with(&data[..]));
            if data.len() < 10 {
                seen_torn = true;
            } else {
                seen_full = true;
            }
        }
        assert!(seen_torn, "no seed tore the crashing append");
        assert!(seen_full, "no seed let the crashing append land whole");
    }

    #[test]
    fn sim_op_counting_is_deterministic() {
        let run = |kill: Option<u64>| {
            let sim = SimStorage::new(7);
            let mut errs = 0;
            for i in 0..3u64 {
                if let Some(k) = kill {
                    if sim.op_count() == 0 {
                        sim.arm_kill(k);
                    }
                }
                if sim.create_segment(i).is_err() {
                    errs += 1;
                }
                if sim.append(i, b"abc").is_err() {
                    errs += 1;
                }
                if sim.sync(i).is_err() {
                    errs += 1;
                }
            }
            (sim.op_count(), errs)
        };
        let (total, errs) = run(None);
        assert_eq!(total, 9);
        assert_eq!(errs, 0);
        let (_, errs) = run(Some(4));
        assert_eq!(errs, 6, "ops 4..=9 must all fail after the crash");
    }
}
