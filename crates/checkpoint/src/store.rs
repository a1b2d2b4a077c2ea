//! The stable checkpoint store.
//!
//! Models the cluster's shared stable storage (the NFS-mounted checkpoint
//! directory of the paper's testbed): it survives node crashes, so a process
//! restarted on a *different* node finds its images. All daemons share one
//! handle.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use parking_lot::Mutex;

use starfish_util::{AppId, Rank};

use crate::image::CkptImage;
use crate::recovery::MsgDep;

#[derive(Default)]
struct StoreInner {
    images: HashMap<(AppId, Rank), Vec<CkptImage>>,
    /// Message-dependency log for uncoordinated checkpointing, per app.
    deps: HashMap<AppId, Vec<MsgDep>>,
    /// Images the chaos layer marked torn/corrupt: present on disk but
    /// failing their checksum, so every read path skips them (a torn write
    /// must degrade recovery to an older line, never crash it).
    corrupted: HashSet<(AppId, Rank, u64)>,
}

/// Shared, thread-safe checkpoint storage. Cheap to clone.
#[derive(Clone, Default)]
pub struct CkptStore {
    inner: Arc<Mutex<StoreInner>>,
}

impl CkptStore {
    pub fn new() -> Self {
        CkptStore::default()
    }

    /// Persist an image. Images of one process are kept sorted by index;
    /// re-putting an index replaces it (idempotent retry) and clears any
    /// corruption mark (a fresh write heals the torn one).
    pub fn put(&self, img: CkptImage) {
        let mut g = self.inner.lock();
        g.corrupted.remove(&(img.app, img.rank, img.index));
        let v = g.images.entry((img.app, img.rank)).or_default();
        match v.binary_search_by_key(&img.index, |i| i.index) {
            Ok(pos) => v[pos] = img,
            Err(pos) => v.insert(pos, img),
        }
    }

    /// Mark a stored image torn/corrupt: every read path skips it from now
    /// on, as if its checksum failed on load. Returns false if no such
    /// image exists. Chaos-layer injection point.
    pub fn corrupt_image(&self, app: AppId, rank: Rank, index: u64) -> bool {
        let mut g = self.inner.lock();
        let exists = g
            .images
            .get(&(app, rank))
            .is_some_and(|v| v.binary_search_by_key(&index, |i| i.index).is_ok());
        if exists {
            g.corrupted.insert((app, rank, index));
        }
        exists
    }

    /// Latest *readable* image of a process, if any (corrupt ones skipped).
    pub fn latest(&self, app: AppId, rank: Rank) -> Option<CkptImage> {
        let g = self.inner.lock();
        g.images.get(&(app, rank)).and_then(|v| {
            v.iter()
                .rev()
                .find(|i| !g.corrupted.contains(&(app, rank, i.index)))
                .cloned()
        })
    }

    /// A specific image by index; `None` if absent or corrupt.
    pub fn get(&self, app: AppId, rank: Rank, index: u64) -> Option<CkptImage> {
        let g = self.inner.lock();
        if g.corrupted.contains(&(app, rank, index)) {
            return None;
        }
        g.images.get(&(app, rank)).and_then(|v| {
            v.binary_search_by_key(&index, |i| i.index)
                .ok()
                .map(|pos| v[pos].clone())
        })
    }

    /// Index 0 means "initial state" (no stored image); this returns the
    /// highest stored index, or 0.
    pub fn latest_index(&self, app: AppId, rank: Rank) -> u64 {
        self.latest(app, rank).map(|i| i.index).unwrap_or(0)
    }

    /// Highest checkpoint index at which *every* rank of `ranks` has a
    /// readable image — the recovery line of coordinated checkpointing.
    ///
    /// This is deliberately not `min(latest_index)`: with torn images a
    /// rank can hold readable images at {1, 3} while another holds {1, 2},
    /// making min-of-latest 2 — an index the first rank cannot restore.
    /// The chaos harness's `torn-interior-image` regression plan pins this
    /// (the line must be jointly *restorable*, not just jointly reached).
    pub fn latest_common_index(&self, app: AppId, ranks: &[Rank]) -> u64 {
        if ranks.is_empty() {
            return 0;
        }
        let g = self.inner.lock();
        let readable = |r: Rank| -> Vec<u64> {
            g.images
                .get(&(app, r))
                .map(|v| {
                    v.iter()
                        .map(|i| i.index)
                        .filter(|idx| !g.corrupted.contains(&(app, r, *idx)))
                        .collect()
                })
                .unwrap_or_default()
        };
        let mut common: HashSet<u64> = readable(ranks[0]).into_iter().collect();
        for r in &ranks[1..] {
            let set: HashSet<u64> = readable(*r).into_iter().collect();
            common.retain(|idx| set.contains(idx));
            if common.is_empty() {
                return 0;
            }
        }
        common.into_iter().max().unwrap_or(0)
    }

    /// Drop images with index < `keep_from` (garbage collection after a
    /// coordinated checkpoint commits).
    pub fn prune_below(&self, app: AppId, keep_from: u64) {
        let mut g = self.inner.lock();
        for ((a, _), v) in g.images.iter_mut() {
            if *a == app {
                v.retain(|i| i.index >= keep_from);
            }
        }
        g.corrupted
            .retain(|(a, _, idx)| *a != app || *idx >= keep_from);
    }

    /// Delete everything belonging to an application.
    pub fn remove_app(&self, app: AppId) {
        let mut g = self.inner.lock();
        g.images.retain(|(a, _), _| *a != app);
        g.deps.remove(&app);
        g.corrupted.retain(|(a, _, _)| *a != app);
    }

    /// Record a message dependency (uncoordinated checkpointing).
    pub fn log_dep(&self, app: AppId, dep: MsgDep) {
        self.inner.lock().deps.entry(app).or_default().push(dep);
    }

    /// All logged dependencies of an application.
    pub fn deps(&self, app: AppId) -> Vec<MsgDep> {
        self.inner
            .lock()
            .deps
            .get(&app)
            .cloned()
            .unwrap_or_default()
    }

    /// (image count, accounted bytes) across the whole store. Sizing walks
    /// only each image's encoded structure, so the lock is not held across
    /// a decode.
    pub fn stats(&self) -> (usize, u64) {
        let g = self.inner.lock();
        let count = g.images.values().map(|v| v.len()).sum();
        let bytes = g
            .images
            .values()
            .flat_map(|v| v.iter())
            .map(|i| i.total_bytes())
            .sum();
        (count, bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::MACHINES;
    use crate::image::CkptLevel;
    use crate::value::CkptValue;
    use starfish_util::{Epoch, VirtualTime};

    fn img(rank: u32, index: u64) -> CkptImage {
        CkptImage::capture(
            AppId(1),
            Rank(rank),
            Epoch(0),
            index,
            CkptLevel::Vm { arch: MACHINES[0] },
            &CkptValue::Int(index as i64),
            vec![],
            VirtualTime::ZERO,
        )
        .unwrap()
    }

    #[test]
    fn put_get_latest() {
        let s = CkptStore::new();
        s.put(img(0, 1));
        s.put(img(0, 2));
        assert_eq!(s.latest(AppId(1), Rank(0)).unwrap().index, 2);
        assert_eq!(s.get(AppId(1), Rank(0), 1).unwrap().index, 1);
        assert!(s.get(AppId(1), Rank(0), 9).is_none());
        assert_eq!(s.latest_index(AppId(1), Rank(0)), 2);
        assert_eq!(s.latest_index(AppId(1), Rank(7)), 0);
    }

    #[test]
    fn replacing_same_index_is_idempotent() {
        let s = CkptStore::new();
        s.put(img(0, 1));
        s.put(img(0, 1));
        let (count, _) = s.stats();
        assert_eq!(count, 1);
    }

    #[test]
    fn out_of_order_puts_stay_sorted() {
        let s = CkptStore::new();
        s.put(img(0, 3));
        s.put(img(0, 1));
        s.put(img(0, 2));
        assert_eq!(s.latest(AppId(1), Rank(0)).unwrap().index, 3);
        assert_eq!(s.get(AppId(1), Rank(0), 2).unwrap().index, 2);
    }

    #[test]
    fn latest_common_index_is_min() {
        let s = CkptStore::new();
        s.put(img(0, 1));
        s.put(img(0, 2));
        s.put(img(1, 1));
        let ranks = [Rank(0), Rank(1)];
        assert_eq!(s.latest_common_index(AppId(1), &ranks), 1);
        // A rank with no checkpoint pins the line at 0.
        let ranks3 = [Rank(0), Rank(1), Rank(2)];
        assert_eq!(s.latest_common_index(AppId(1), &ranks3), 0);
    }

    #[test]
    fn latest_common_index_on_an_empty_store_is_zero() {
        let s = CkptStore::new();
        assert_eq!(s.latest_common_index(AppId(1), &[Rank(0), Rank(1)]), 0);
        // An empty rank list means "no constraint holders": index 0 (start
        // from initial state), never a panic.
        assert_eq!(s.latest_common_index(AppId(1), &[]), 0);
        // A store with images for a *different* app is still empty here.
        s.put(img(0, 5));
        assert_eq!(s.latest_common_index(AppId(2), &[Rank(0)]), 0);
    }

    #[test]
    fn latest_common_index_single_rank_is_its_latest_readable() {
        let s = CkptStore::new();
        s.put(img(0, 1));
        s.put(img(0, 4));
        assert_eq!(s.latest_common_index(AppId(1), &[Rank(0)]), 4);
        // With the head torn, the single-rank line falls back, matching
        // `latest_index` exactly.
        assert!(s.corrupt_image(AppId(1), Rank(0), 4));
        assert_eq!(s.latest_common_index(AppId(1), &[Rank(0)]), 1);
        assert_eq!(
            s.latest_common_index(AppId(1), &[Rank(0)]),
            s.latest_index(AppId(1), Rank(0))
        );
    }

    #[test]
    fn latest_common_index_interleaved_torn_images() {
        // Readable sets interleave with no overlap above 1:
        //   rank 0: {1, 2, 4} (3 torn), rank 1: {1, 3} (2, 4 torn),
        //   rank 2: {1, 2, 3, 4}.
        // Pairwise mins and min-of-latest all lie: the only jointly
        // readable index is 1.
        let s = CkptStore::new();
        for r in 0..3 {
            for i in 1..=4 {
                s.put(img(r, i));
            }
        }
        assert!(s.corrupt_image(AppId(1), Rank(0), 3));
        assert!(s.corrupt_image(AppId(1), Rank(1), 2));
        assert!(s.corrupt_image(AppId(1), Rank(1), 4));
        let ranks = [Rank(0), Rank(1), Rank(2)];
        assert_eq!(s.latest_common_index(AppId(1), &ranks), 1);
        // Healing rank 1's torn index 4 is not enough (rank 1 still lacks
        // nothing at 4 now, but rank 0 has 4 too — line jumps to 4).
        s.put(img(1, 4));
        assert_eq!(s.latest_common_index(AppId(1), &ranks), 4);
    }

    #[test]
    fn prune_below_garbage_collects() {
        let s = CkptStore::new();
        for i in 1..=4 {
            s.put(img(0, i));
        }
        s.prune_below(AppId(1), 3);
        assert!(s.get(AppId(1), Rank(0), 2).is_none());
        assert!(s.get(AppId(1), Rank(0), 3).is_some());
    }

    #[test]
    fn corrupt_image_degrades_recovery_line_by_one() {
        let s = CkptStore::new();
        s.put(img(0, 1));
        s.put(img(0, 2));
        s.put(img(1, 1));
        s.put(img(1, 2));
        assert!(s.corrupt_image(AppId(1), Rank(0), 2));
        // Reads skip the torn image: rank 0 falls back to index 1, pulling
        // the recovery line with it — one step back, no domino.
        assert!(s.get(AppId(1), Rank(0), 2).is_none());
        assert_eq!(s.latest(AppId(1), Rank(0)).unwrap().index, 1);
        assert_eq!(s.latest_index(AppId(1), Rank(0)), 1);
        assert_eq!(s.latest_common_index(AppId(1), &[Rank(0), Rank(1)]), 1);
        // Marking something that was never stored reports failure.
        assert!(!s.corrupt_image(AppId(1), Rank(0), 9));
    }

    #[test]
    fn recovery_line_is_jointly_restorable_not_min_of_latest() {
        // rank 0 readable {1, 3} (2 torn), rank 1 readable {1, 2} (3 torn):
        // min-of-latest would claim 2, which rank 0 cannot restore. The
        // line must fall back to 1, the highest index readable by all.
        let s = CkptStore::new();
        for i in 1..=3 {
            s.put(img(0, i));
            s.put(img(1, i));
        }
        assert!(s.corrupt_image(AppId(1), Rank(0), 2));
        assert!(s.corrupt_image(AppId(1), Rank(1), 3));
        let ranks = [Rank(0), Rank(1)];
        let line = s.latest_common_index(AppId(1), &ranks);
        assert_eq!(line, 1);
        for r in ranks {
            assert!(s.get(AppId(1), r, line).is_some(), "line must be readable");
        }
    }

    #[test]
    fn rewriting_a_corrupt_image_heals_it() {
        let s = CkptStore::new();
        s.put(img(0, 1));
        assert!(s.corrupt_image(AppId(1), Rank(0), 1));
        assert!(s.latest(AppId(1), Rank(0)).is_none());
        s.put(img(0, 1)); // checkpoint retry overwrites the torn file
        assert_eq!(s.latest(AppId(1), Rank(0)).unwrap().index, 1);
    }

    #[test]
    fn remove_app_clears_everything() {
        let s = CkptStore::new();
        s.put(img(0, 1));
        s.log_dep(
            AppId(1),
            MsgDep {
                sender: Rank(0),
                send_interval: 1,
                receiver: Rank(1),
                recv_interval: 0,
            },
        );
        s.remove_app(AppId(1));
        assert_eq!(s.stats().0, 0);
        assert!(s.deps(AppId(1)).is_empty());
    }
}
