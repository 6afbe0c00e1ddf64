//! Shared dense-table kernels: the *one* implementation of every hot
//! Q-table operation, used both by the boxed [`QTable`](crate::QTable)
//! methods and by the flat [`QArena`](crate::QArena) slab views.
//!
//! Byte-identity between the boxed and the arena training paths rests on
//! this sharing: the Bellman update, the bootstrap row scan and the
//! symmetric merge are single functions over raw `(values, visited)`
//! storage, so the two paths cannot drift in floating-point expression
//! order. On top of the canonical scans this module adds two *exact*
//! accelerations:
//!
//! * [`RowMaxCache`] — a lazily filled per-row cache of the bootstrap
//!   term `max_a Q(s, a)`, turning the 81-entry row scan of every
//!   training iteration into an O(1) lookup. The cache is bit-exact by
//!   construction: rows are (re)filled by the canonical scan itself, the
//!   in-place fast path only applies when the new value is *strictly*
//!   greater than the cached maximum (where the canonical scan provably
//!   returns the new value's own bits), and every tie — including the
//!   `-0.0`/`+0.0` cases whose result bits depend on scan position —
//!   conservatively invalidates the row.
//! * Row-skipping merges — the symmetric gossip merge walks only rows
//!   with at least one visited entry on either side (tracked as a
//!   monotone 81-bit [`row mask`](row_any_mask)); skipped rows are
//!   entirely `(unvisited, unvisited)`, for which the canonical merge is
//!   a provable no-op.

use crate::state::NUM_STATES;

/// Entries in one dense table (81 × 81).
pub const TABLE_LEN: usize = NUM_STATES * NUM_STATES;

/// Canonical EMA update `Q(s,a) ← (1−α)·Q(s,a) + α·target`, marking the
/// entry visited. Returns `(was_visited, old_value)` so cache layers can
/// maintain themselves exactly.
#[inline]
pub fn update_toward(
    values: &mut [f64],
    visited: &mut [bool],
    n_visited: &mut usize,
    i: usize,
    target: f64,
    alpha: f64,
) -> (bool, f64) {
    let old = values[i];
    let new = (1.0 - alpha) * old + alpha * target;
    let was = visited[i];
    if !was {
        visited[i] = true;
        *n_visited += 1;
    }
    values[i] = new;
    (was, old)
}

/// Canonical bootstrap scan over one row: `(any_visited, max)` where
/// `max` is the first-encountered maximum over visited entries (strict
/// `>` comparisons, exactly the historical loop). `max` is meaningless
/// when `any_visited` is false.
#[inline]
pub fn row_max_scan(values: &[f64], visited: &[bool], s: usize) -> (bool, f64) {
    let base = s * NUM_STATES;
    let mut best = f64::NEG_INFINITY;
    let mut any = false;
    for i in base..base + NUM_STATES {
        if visited[i] {
            any = true;
            if values[i] > best {
                best = values[i];
            }
        }
    }
    (any, best)
}

/// The bootstrap term `max_a Q(s, a)` with the canonical untrained-row
/// fallback of `0.0`.
#[inline]
pub fn max_over_actions(values: &[f64], visited: &[bool], s: usize) -> f64 {
    let (any, best) = row_max_scan(values, visited, s);
    if any {
        best
    } else {
        0.0
    }
}

/// Canonical symmetric merge of one entry range (Algorithm 2's `UPDATE`,
/// both directions at once): average where both visited, adopt where one
/// is. Exactly the historical per-entry match.
#[inline]
pub fn merge_symmetric_range(
    a_values: &mut [f64],
    a_visited: &mut [bool],
    a_n_visited: &mut usize,
    b_values: &mut [f64],
    b_visited: &mut [bool],
    b_n_visited: &mut usize,
    range: std::ops::Range<usize>,
) {
    for i in range {
        match (a_visited[i], b_visited[i]) {
            (true, true) => {
                let m = (a_values[i] + b_values[i]) / 2.0;
                a_values[i] = m;
                b_values[i] = m;
            }
            (false, true) => {
                a_values[i] = b_values[i];
                a_visited[i] = true;
                *a_n_visited += 1;
            }
            (true, false) => {
                b_values[i] = a_values[i];
                b_visited[i] = true;
                *b_n_visited += 1;
            }
            (false, false) => {}
        }
    }
}

/// Canonical one-sided merge of one entry range (Algorithm 2's `UPDATE`
/// applied to the receiving side only): average where both are
/// visited, adopt where only the source is. Exactly the historical
/// `QTable::merge_average` loop.
#[inline]
pub fn merge_average_range(
    dst_values: &mut [f64],
    dst_visited: &mut [bool],
    dst_n_visited: &mut usize,
    src_values: &[f64],
    src_visited: &[bool],
    range: std::ops::Range<usize>,
) {
    for i in range {
        match (dst_visited[i], src_visited[i]) {
            (true, true) => dst_values[i] = (dst_values[i] + src_values[i]) / 2.0,
            (false, true) => {
                dst_values[i] = src_values[i];
                dst_visited[i] = true;
                *dst_n_visited += 1;
            }
            _ => {}
        }
    }
}

/// Row-skipping symmetric merge over two parallel tables: only rows in
/// `union_mask` (rows visited on either side) are walked; the rest are
/// all-`(false, false)` and the canonical merge would not touch them.
/// Returns nothing — callers update both row masks to the union.
#[inline]
pub fn merge_symmetric_masked(
    a_values: &mut [f64],
    a_visited: &mut [bool],
    a_n_visited: &mut usize,
    b_values: &mut [f64],
    b_visited: &mut [bool],
    b_n_visited: &mut usize,
    union_mask: u128,
) {
    let mut mask = union_mask;
    while mask != 0 {
        let row = mask.trailing_zeros() as usize;
        mask &= mask - 1;
        let base = row * NUM_STATES;
        merge_symmetric_range(
            a_values,
            a_visited,
            a_n_visited,
            b_values,
            b_visited,
            b_n_visited,
            base..base + NUM_STATES,
        );
    }
}

/// Recomputes the monotone row mask (bit `r` set ⇔ row `r` has at least
/// one visited entry) from a visited bitmap.
pub fn row_any_mask(visited: &[bool]) -> u128 {
    debug_assert_eq!(visited.len(), TABLE_LEN);
    let mut mask = 0u128;
    for row in 0..NUM_STATES {
        let base = row * NUM_STATES;
        if visited[base..base + NUM_STATES].iter().any(|&v| v) {
            mask |= 1 << row;
        }
    }
    mask
}

/// Lazily filled per-row cache of the bootstrap term, bit-exact with
/// [`max_over_actions`]. One instance caches one table; reset it (O(1))
/// whenever the table may have been mutated behind its back (a gossip
/// merge, a restore) — in practice once per training burst.
#[derive(Debug, Clone)]
pub struct RowMaxCache {
    max: [f64; NUM_STATES],
    /// Rows whose cache entry is filled and exact.
    valid: u128,
    /// Of the valid rows, which have at least one visited entry
    /// (invalid rows' bits are meaningless).
    any: u128,
}

impl Default for RowMaxCache {
    fn default() -> Self {
        RowMaxCache {
            max: [0.0; NUM_STATES],
            valid: 0,
            any: 0,
        }
    }
}

impl RowMaxCache {
    /// Drops every cached row (O(1)).
    #[inline]
    pub fn reset(&mut self) {
        self.valid = 0;
    }

    /// [`max_over_actions`] through the cache: scans (and caches) the row
    /// on first use, O(1) afterwards. Bit-identical to the uncached scan.
    #[inline]
    pub fn max_over_actions(&mut self, values: &[f64], visited: &[bool], s: usize) -> f64 {
        let bit = 1u128 << s;
        if self.valid & bit == 0 {
            let (any, best) = row_max_scan(values, visited, s);
            self.valid |= bit;
            if any {
                self.any |= bit;
                self.max[s] = best;
            } else {
                self.any &= !bit;
            }
        }
        if self.any & bit != 0 {
            self.max[s]
        } else {
            0.0
        }
    }

    /// Maintains the cache across one [`update_toward`] on row `s`.
    /// `was_visited`/`old` describe the entry *before* the write, `new`
    /// is the written value. Exactness argument per case:
    ///
    /// * row not cached — nothing to maintain;
    /// * row cached as untrained — `new` is now its only visited entry,
    ///   and the canonical scan of a single-entry row returns that
    ///   entry's own bits;
    /// * `new > max` (strict) — the canonical scan returns the strictly
    ///   greatest value's own bits regardless of position;
    /// * the overwritten entry may have carried the maximum
    ///   (`was_visited && old >= max`, i.e. `old == max`), or `new` ties
    ///   the maximum (`new == max`, where the result's *bits* can depend
    ///   on scan position for `±0.0` ties) — conservatively invalidate;
    ///   the next lookup refills by the canonical scan;
    /// * otherwise (`new < max`, old entry below the maximum) — the set
    ///   of entries at the maximum is unchanged, so the scan result is
    ///   unchanged.
    #[inline]
    pub fn note_update(&mut self, s: usize, was_visited: bool, old: f64, new: f64) {
        let bit = 1u128 << s;
        if self.valid & bit == 0 {
            return;
        }
        if self.any & bit == 0 {
            self.any |= bit;
            self.max[s] = new;
            return;
        }
        let m = self.max[s];
        if new > m {
            self.max[s] = new;
            return;
        }
        if (was_visited && old >= m) || new == m {
            self.valid &= !bit;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// Random interleaving of cached lookups and updates must match the
    /// canonical scan bit-for-bit — including ±0.0 tie bits.
    #[test]
    fn cached_max_matches_canonical_scan_bitwise() {
        let mut rng = SmallRng::seed_from_u64(42);
        let mut values = vec![0.0f64; TABLE_LEN];
        let mut visited = vec![false; TABLE_LEN];
        let mut n_visited = 0usize;
        let mut cache = RowMaxCache::default();
        for step in 0..200_000 {
            if rng.gen_bool(0.5) {
                let s = rng.gen_range(0..NUM_STATES);
                let a = rng.gen_range(0..NUM_STATES);
                // Adversarial targets: clustered values with plenty of
                // exact ties and signed zeros.
                let target = match rng.gen_range(0..6) {
                    0 => 0.0,
                    1 => -0.0,
                    2 => 1.0,
                    3 => -1.0,
                    4 => f64::from(rng.gen_range(-3i32..3)),
                    _ => rng.gen_range(-2.0..2.0),
                };
                let (was, old) = update_toward(
                    &mut values,
                    &mut visited,
                    &mut n_visited,
                    s * NUM_STATES + a,
                    target,
                    0.5,
                );
                cache.note_update(s, was, old, values[s * NUM_STATES + a]);
            } else {
                let s = rng.gen_range(0..NUM_STATES);
                let got = cache.max_over_actions(&values, &visited, s);
                let want = max_over_actions(&values, &visited, s);
                assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "step {step}, row {s}: cached {got} vs canonical {want}"
                );
            }
            if step % 50_000 == 0 {
                cache.reset();
            }
        }
    }

    /// Exact ±0.0 tie: a -0.0 written while +0.0 holds the row maximum
    /// must not let the cache return stale bits.
    #[test]
    fn signed_zero_ties_invalidate() {
        let mut values = vec![0.0f64; TABLE_LEN];
        let mut visited = vec![false; TABLE_LEN];
        let mut nv = 0usize;
        let mut cache = RowMaxCache::default();
        // Entry 5 := +0.0 (alpha 1.0 target +0.0).
        update_toward(&mut values, &mut visited, &mut nv, 5, 0.0, 1.0);
        assert_eq!(
            cache.max_over_actions(&values, &visited, 0).to_bits(),
            0.0f64.to_bits()
        );
        // Entry 2 := -1.0, then := -0.0 (α=1: 0·(−1) + 1·(−0.0) = −0.0 —
        // going through a negative value is what makes the written bits
        // actually negative zero). Earlier in the row than entry 5, so
        // the canonical max *bits* flip to −0.0.
        let (was, old) = update_toward(&mut values, &mut visited, &mut nv, 2, -1.0, 1.0);
        cache.note_update(0, was, old, values[2]);
        let (was, old) = update_toward(&mut values, &mut visited, &mut nv, 2, -0.0, 1.0);
        cache.note_update(0, was, old, values[2]);
        assert_eq!(values[2].to_bits(), (-0.0f64).to_bits());
        let got = cache.max_over_actions(&values, &visited, 0);
        let want = max_over_actions(&values, &visited, 0);
        assert_eq!(got.to_bits(), want.to_bits());
        assert_eq!(want.to_bits(), (-0.0f64).to_bits());
    }

    /// The masked merge must be bit-identical to the full-range merge on
    /// random sparse tables, and the union mask exactly covers the
    /// merged rows.
    #[test]
    fn masked_merge_matches_full_merge() {
        let mut rng = SmallRng::seed_from_u64(7);
        for _ in 0..50 {
            let mut mk = |density: f64| {
                let mut v = vec![0.0f64; TABLE_LEN];
                let mut vis = vec![false; TABLE_LEN];
                let mut nv = 0usize;
                for _ in 0..(density * TABLE_LEN as f64) as usize {
                    let i = rng.gen_range(0..TABLE_LEN);
                    if !vis[i] {
                        vis[i] = true;
                        nv += 1;
                    }
                    v[i] = rng.gen_range(-5.0..5.0);
                }
                (v, vis, nv)
            };
            let (av, avis, anv) = mk(0.01);
            let (bv, bvis, bnv) = mk(0.02);

            let (mut av1, mut avis1, mut anv1) = (av.clone(), avis.clone(), anv);
            let (mut bv1, mut bvis1, mut bnv1) = (bv.clone(), bvis.clone(), bnv);
            merge_symmetric_range(
                &mut av1,
                &mut avis1,
                &mut anv1,
                &mut bv1,
                &mut bvis1,
                &mut bnv1,
                0..TABLE_LEN,
            );

            let union = row_any_mask(&avis) | row_any_mask(&bvis);
            let (mut av2, mut avis2, mut anv2) = (av, avis, anv);
            let (mut bv2, mut bvis2, mut bnv2) = (bv, bvis, bnv);
            merge_symmetric_masked(
                &mut av2, &mut avis2, &mut anv2, &mut bv2, &mut bvis2, &mut bnv2, union,
            );

            assert_eq!(av1, av2);
            assert_eq!(bv1, bv2);
            assert_eq!(avis1, avis2);
            assert_eq!(bvis1, bvis2);
            assert_eq!(anv1, anv2);
            assert_eq!(bnv1, bnv2);
            // Post-merge, both sides' live rows are exactly the union.
            assert_eq!(row_any_mask(&avis2), union);
            assert_eq!(row_any_mask(&bvis2), union);
        }
    }
}
