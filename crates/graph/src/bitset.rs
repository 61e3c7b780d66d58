//! Fixed-capacity bitsets and dense bitset adjacency matrices.
//!
//! The branch-and-bound search in `rfc-core` spends most of its time intersecting a
//! candidate set with the neighborhood of the branching vertex. Over the small,
//! re-labeled vertex spaces of post-reduction connected components that intersection is
//! fastest as a word-wise AND of `u64` blocks:
//!
//! * [`Bitset`] — a fixed-capacity set of small integers backed by words of `u64`.
//! * [`BitMatrix`] — a dense `n × n` bit matrix, one [`Bitset`]-compatible row per
//!   vertex, used as an adjacency matrix so `candidates ∩ N(v)` is a single AND pass.
//!
//! Both types deliberately expose their raw `&[u64]` words so a [`Bitset`] can be
//! intersected directly with a [`BitMatrix`] row without an intermediate allocation.

/// Number of bits per storage word.
const WORD_BITS: usize = u64::BITS as usize;

#[inline]
fn word_count(nbits: usize) -> usize {
    nbits.div_ceil(WORD_BITS)
}

/// 4-way unrolled AND+popcount over two equal-length word slices.
#[inline]
fn and_popcount(a: &[u64], b: &[u64]) -> usize {
    let n = a.len();
    let (mut c0, mut c1, mut c2, mut c3) = (0usize, 0usize, 0usize, 0usize);
    let mut i = 0;
    while i + 4 <= n {
        c0 += (a[i] & b[i]).count_ones() as usize;
        c1 += (a[i + 1] & b[i + 1]).count_ones() as usize;
        c2 += (a[i + 2] & b[i + 2]).count_ones() as usize;
        c3 += (a[i + 3] & b[i + 3]).count_ones() as usize;
        i += 4;
    }
    while i < n {
        c0 += (a[i] & b[i]).count_ones() as usize;
        i += 1;
    }
    c0 + c1 + c2 + c3
}

/// A fixed-capacity set of integers in `0..capacity`, stored as words of `u64`.
///
/// The capacity is fixed at construction; all per-element operations are `O(1)` and the
/// set-wide operations (`count`, intersections) are `O(capacity / 64)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bitset {
    nbits: usize,
    words: Vec<u64>,
}

impl Bitset {
    /// Creates an empty bitset with room for values in `0..nbits`.
    pub fn new(nbits: usize) -> Self {
        Self {
            nbits,
            words: vec![0; word_count(nbits)],
        }
    }

    /// Creates a bitset with every value in `0..nbits` present.
    pub fn full(nbits: usize) -> Self {
        let mut words = vec![u64::MAX; word_count(nbits)];
        if let Some(last) = words.last_mut() {
            let used = nbits % WORD_BITS;
            if used != 0 {
                *last = (1u64 << used) - 1;
            }
        }
        Self { nbits, words }
    }

    /// The fixed capacity: values must lie in `0..capacity()`.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.nbits
    }

    /// Inserts `i` into the set.
    #[inline]
    pub fn insert(&mut self, i: usize) {
        debug_assert!(i < self.nbits, "bit {i} out of range 0..{}", self.nbits);
        self.words[i / WORD_BITS] |= 1u64 << (i % WORD_BITS);
    }

    /// Removes `i` from the set.
    #[inline]
    pub fn remove(&mut self, i: usize) {
        debug_assert!(i < self.nbits, "bit {i} out of range 0..{}", self.nbits);
        self.words[i / WORD_BITS] &= !(1u64 << (i % WORD_BITS));
    }

    /// Whether `i` is in the set.
    #[inline]
    pub fn contains(&self, i: usize) -> bool {
        debug_assert!(i < self.nbits, "bit {i} out of range 0..{}", self.nbits);
        self.words[i / WORD_BITS] >> (i % WORD_BITS) & 1 != 0
    }

    /// Number of elements in the set (population count).
    #[inline]
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether the set is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Removes every element, keeping the capacity.
    #[inline]
    pub fn clear(&mut self) {
        self.words.fill(0);
    }

    /// Whether `self ∩ other` is non-empty (`other` as in
    /// [`intersection_count`](Self::intersection_count)). Stops at the first common
    /// word, so a hit on an early word costs one AND.
    #[inline]
    pub fn intersects(&self, other: &[u64]) -> bool {
        debug_assert_eq!(self.words.len(), other.len(), "capacity mismatch");
        self.words.iter().zip(other).any(|(a, b)| a & b != 0)
    }

    /// The smallest element of the set, if any.
    #[inline]
    pub fn first_set(&self) -> Option<usize> {
        self.words
            .iter()
            .position(|&w| w != 0)
            .map(|wi| wi * WORD_BITS + self.words[wi].trailing_zeros() as usize)
    }

    /// The raw storage words (least-significant bit of word 0 is element 0).
    #[inline]
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// `|self ∩ other|` where `other` is the word representation of a set with the same
    /// capacity (another [`Bitset`]'s [`words`](Self::words) or a [`BitMatrix`] row).
    ///
    /// This is the innermost kernel of the branch-and-bound (attribute counting runs it
    /// on every node), so the AND+popcount loop is unrolled 4-wide over independent
    /// accumulators to keep the popcount units busy instead of serializing on one sum.
    #[inline]
    pub fn intersection_count(&self, other: &[u64]) -> usize {
        debug_assert_eq!(self.words.len(), other.len(), "capacity mismatch");
        and_popcount(&self.words, other)
    }

    /// Fused AND+popcount into a scratch bitset: writes `self ∩ other` over `out`'s
    /// previous contents (every word is overwritten, so `out` may hold stale data from
    /// a [`BitsetPool`]) and returns the intersection's population count in the same
    /// pass. `out` must have the same capacity as `self`.
    ///
    /// This is the allocation-free replacement for
    /// [`intersection_with`](Self::intersection_with) on the branch hot loop: the
    /// search reuses one scratch bitset per recursion depth instead of allocating a
    /// fresh `Vec<u64>` per node.
    #[inline]
    pub fn intersect_into(&self, other: &[u64], out: &mut Bitset) -> usize {
        debug_assert_eq!(self.words.len(), other.len(), "capacity mismatch");
        debug_assert_eq!(self.nbits, out.nbits, "scratch capacity mismatch");
        let n = self.words.len();
        let (mut c0, mut c1, mut c2, mut c3) = (0usize, 0usize, 0usize, 0usize);
        let mut i = 0;
        while i + 4 <= n {
            let w0 = self.words[i] & other[i];
            let w1 = self.words[i + 1] & other[i + 1];
            let w2 = self.words[i + 2] & other[i + 2];
            let w3 = self.words[i + 3] & other[i + 3];
            out.words[i] = w0;
            out.words[i + 1] = w1;
            out.words[i + 2] = w2;
            out.words[i + 3] = w3;
            c0 += w0.count_ones() as usize;
            c1 += w1.count_ones() as usize;
            c2 += w2.count_ones() as usize;
            c3 += w3.count_ones() as usize;
            i += 4;
        }
        while i < n {
            let w = self.words[i] & other[i];
            out.words[i] = w;
            c0 += w.count_ones() as usize;
            i += 1;
        }
        c0 + c1 + c2 + c3
    }

    /// Overwrites this bitset with a copy of `src` (same capacity required).
    #[inline]
    pub fn copy_from(&mut self, src: &Bitset) {
        debug_assert_eq!(self.nbits, src.nbits, "capacity mismatch");
        self.words.copy_from_slice(&src.words);
    }

    /// Returns `self ∩ other` as a new bitset (`other` as in
    /// [`intersection_count`](Self::intersection_count)).
    #[inline]
    pub fn intersection_with(&self, other: &[u64]) -> Bitset {
        debug_assert_eq!(self.words.len(), other.len(), "capacity mismatch");
        Bitset {
            nbits: self.nbits,
            words: self.words.iter().zip(other).map(|(a, b)| a & b).collect(),
        }
    }

    /// Intersects in place: `self ← self ∩ other`.
    #[inline]
    pub fn intersect_with(&mut self, other: &[u64]) {
        debug_assert_eq!(self.words.len(), other.len(), "capacity mismatch");
        for (a, b) in self.words.iter_mut().zip(other) {
            *a &= b;
        }
    }

    /// Returns `self ∪ other` as a new bitset (`other` as in
    /// [`intersection_count`](Self::intersection_count)).
    #[inline]
    pub fn union_with(&self, other: &[u64]) -> Bitset {
        debug_assert_eq!(self.words.len(), other.len(), "capacity mismatch");
        Bitset {
            nbits: self.nbits,
            words: self.words.iter().zip(other).map(|(a, b)| a | b).collect(),
        }
    }

    /// Returns `self \ other` as a new bitset (`other` as in
    /// [`intersection_count`](Self::intersection_count)).
    #[inline]
    pub fn difference_with(&self, other: &[u64]) -> Bitset {
        debug_assert_eq!(self.words.len(), other.len(), "capacity mismatch");
        Bitset {
            nbits: self.nbits,
            words: self.words.iter().zip(other).map(|(a, b)| a & !b).collect(),
        }
    }

    /// Iterates the elements of the set in increasing order.
    pub fn iter(&self) -> SetBits<'_> {
        SetBits {
            words: &self.words,
            word_idx: 0,
            current: self.words.first().copied().unwrap_or(0),
        }
    }
}

impl<'a> IntoIterator for &'a Bitset {
    type Item = usize;
    type IntoIter = SetBits<'a>;

    fn into_iter(self) -> SetBits<'a> {
        self.iter()
    }
}

/// Iterator over the elements of a [`Bitset`], in increasing order.
#[derive(Debug, Clone)]
pub struct SetBits<'a> {
    words: &'a [u64],
    word_idx: usize,
    current: u64,
}

impl Iterator for SetBits<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        while self.current == 0 {
            self.word_idx += 1;
            self.current = *self.words.get(self.word_idx)?;
        }
        let bit = self.current.trailing_zeros() as usize;
        self.current &= self.current - 1; // clear the lowest set bit
        Some(self.word_idx * WORD_BITS + bit)
    }
}

/// A dense `n × n` bit matrix with [`Bitset`]-compatible rows.
///
/// Used as an adjacency matrix over the compact vertex space of one connected component:
/// row `v` is the neighborhood `N(v)` as a bitset, so candidate-set intersection during
/// branching is a word-wise AND against [`row`](Self::row). Memory is `n² / 8` bytes,
/// which is cheap for post-reduction components (a 4 096-vertex component takes 2 MiB).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitMatrix {
    n: usize,
    words_per_row: usize,
    words: Vec<u64>,
}

impl BitMatrix {
    /// Creates an all-zero `n × n` matrix.
    pub fn new(n: usize) -> Self {
        let words_per_row = word_count(n);
        Self {
            n,
            words_per_row,
            words: vec![0; n * words_per_row],
        }
    }

    /// The number of rows (and columns).
    #[inline]
    pub fn order(&self) -> usize {
        self.n
    }

    /// Sets the bit at `(i, j)` **and** its mirror `(j, i)` — an undirected edge.
    #[inline]
    pub fn set_edge(&mut self, i: usize, j: usize) {
        debug_assert!(i < self.n && j < self.n, "index out of range");
        self.words[i * self.words_per_row + j / WORD_BITS] |= 1u64 << (j % WORD_BITS);
        self.words[j * self.words_per_row + i / WORD_BITS] |= 1u64 << (i % WORD_BITS);
    }

    /// Whether the bit at `(i, j)` is set.
    #[inline]
    pub fn contains(&self, i: usize, j: usize) -> bool {
        debug_assert!(i < self.n && j < self.n, "index out of range");
        self.words[i * self.words_per_row + j / WORD_BITS] >> (j % WORD_BITS) & 1 != 0
    }

    /// Row `i` as bitset words, directly usable with the [`Bitset`] intersection
    /// operations.
    #[inline]
    pub fn row(&self, i: usize) -> &[u64] {
        debug_assert!(i < self.n, "row out of range");
        &self.words[i * self.words_per_row..(i + 1) * self.words_per_row]
    }
}

/// A reusable pool of same-capacity scratch [`Bitset`]s.
///
/// The branch-and-bound needs one candidate bitset per recursion depth; allocating a
/// fresh `Vec<u64>` per node dominated the hot loop. A pool hands out previously
/// released bitsets instead, so steady-state recursion allocates nothing. Pools are
/// per-worker (not shared), so acquisition is a plain `Vec::pop`.
///
/// Buffers come back dirty: the acquire methods therefore always overwrite every word
/// ([`acquire_copy`](Self::acquire_copy) / [`acquire_intersection`](Self::acquire_intersection))
/// rather than exposing a "blank" buffer that could leak stale bits.
#[derive(Debug, Default)]
pub struct BitsetPool {
    nbits: usize,
    free: Vec<Bitset>,
}

impl BitsetPool {
    /// A pool handing out bitsets of capacity `nbits`.
    pub fn new(nbits: usize) -> Self {
        Self {
            nbits,
            free: Vec::new(),
        }
    }

    /// The capacity of the bitsets this pool hands out.
    #[inline]
    pub fn nbits(&self) -> usize {
        self.nbits
    }

    /// Re-targets the pool to a new capacity, dropping cached buffers if the capacity
    /// actually changed. Lets one worker reuse its pool across components of different
    /// sizes.
    pub fn reset(&mut self, nbits: usize) {
        if self.nbits != nbits {
            self.nbits = nbits;
            self.free.clear();
        }
    }

    /// Acquires a bitset holding a copy of `src` (which must match the pool capacity).
    pub fn acquire_copy(&mut self, src: &Bitset) -> Bitset {
        debug_assert_eq!(src.capacity(), self.nbits, "pool capacity mismatch");
        match self.free.pop() {
            Some(mut buf) => {
                buf.copy_from(src);
                buf
            }
            None => src.clone(),
        }
    }

    /// Acquires a bitset holding `set ∩ other`, returning it together with its
    /// population count (fused in one pass via [`Bitset::intersect_into`]).
    pub fn acquire_intersection(&mut self, set: &Bitset, other: &[u64]) -> (Bitset, usize) {
        debug_assert_eq!(set.capacity(), self.nbits, "pool capacity mismatch");
        let mut buf = self.free.pop().unwrap_or_else(|| Bitset::new(self.nbits));
        let count = set.intersect_into(other, &mut buf);
        (buf, count)
    }

    /// Returns a bitset to the pool for reuse.
    pub fn release(&mut self, buf: Bitset) {
        debug_assert_eq!(buf.capacity(), self.nbits, "pool capacity mismatch");
        self.free.push(buf);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_remove_contains() {
        let mut s = Bitset::new(130);
        assert_eq!(s.capacity(), 130);
        assert!(s.is_empty());
        for i in [0usize, 1, 63, 64, 65, 127, 128, 129] {
            s.insert(i);
            assert!(s.contains(i));
        }
        assert_eq!(s.count(), 8);
        s.remove(64);
        assert!(!s.contains(64));
        assert_eq!(s.count(), 7);
        // Removing an absent element is a no-op.
        s.remove(64);
        assert_eq!(s.count(), 7);
    }

    #[test]
    fn full_sets_exactly_the_capacity() {
        for n in [0usize, 1, 63, 64, 65, 128, 130] {
            let s = Bitset::full(n);
            assert_eq!(s.count(), n, "n = {n}");
            assert_eq!(s.iter().collect::<Vec<_>>(), (0..n).collect::<Vec<_>>());
        }
        // No stray bits above the capacity in the last word.
        let s = Bitset::full(65);
        assert_eq!(s.words()[1], 1);
    }

    #[test]
    fn iteration_is_ascending_and_matches_first_set() {
        let mut s = Bitset::new(200);
        for i in [5usize, 64, 66, 150, 199] {
            s.insert(i);
        }
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![5, 64, 66, 150, 199]);
        assert_eq!(s.first_set(), Some(5));
        s.remove(5);
        assert_eq!(s.first_set(), Some(64));
        let empty = Bitset::new(100);
        assert_eq!(empty.first_set(), None);
        assert_eq!(empty.iter().count(), 0);
        assert_eq!((&s).into_iter().count(), 4);
    }

    #[test]
    fn intersections() {
        let mut a = Bitset::new(100);
        let mut b = Bitset::new(100);
        for i in 0..100 {
            if i % 2 == 0 {
                a.insert(i);
            }
            if i % 3 == 0 {
                b.insert(i);
            }
        }
        // Multiples of 6 in 0..100: 0, 6, ..., 96 → 17 of them.
        assert_eq!(a.intersection_count(b.words()), 17);
        let c = a.intersection_with(b.words());
        assert_eq!(c.count(), 17);
        assert!(c.iter().all(|i| i % 6 == 0));
        let mut d = a.clone();
        d.intersect_with(b.words());
        assert_eq!(d, c);
    }

    #[test]
    fn union_and_difference() {
        let mut a = Bitset::new(100);
        let mut b = Bitset::new(100);
        for i in 0..100 {
            if i % 2 == 0 {
                a.insert(i);
            }
            if i % 3 == 0 {
                b.insert(i);
            }
        }
        // |evens ∪ multiples-of-3| = 50 + 34 - 17.
        let u = a.union_with(b.words());
        assert_eq!(u.count(), 67);
        assert!(u.iter().all(|i| i % 2 == 0 || i % 3 == 0));
        // evens \ multiples-of-3: 50 - 17.
        let d = a.difference_with(b.words());
        assert_eq!(d.count(), 33);
        assert!(d.iter().all(|i| i % 2 == 0 && i % 3 != 0));
        // Difference against self empties; union with self is identity.
        assert!(a.difference_with(a.words()).is_empty());
        assert_eq!(a.union_with(a.words()), a);
    }

    #[test]
    fn bit_matrix_roundtrip() {
        let mut m = BitMatrix::new(70);
        assert_eq!(m.order(), 70);
        m.set_edge(0, 69);
        m.set_edge(3, 4);
        assert!(m.contains(0, 69) && m.contains(69, 0));
        assert!(m.contains(3, 4) && m.contains(4, 3));
        assert!(!m.contains(0, 1));
        // Rows interoperate with Bitset: N(69) ∩ {0..70} = {0}.
        let all = Bitset::full(70);
        assert_eq!(
            all.intersection_with(m.row(69)).iter().collect::<Vec<_>>(),
            vec![0]
        );
        assert_eq!(all.intersection_count(m.row(3)), 1);
    }

    #[test]
    fn zero_capacity_is_fine() {
        let s = Bitset::new(0);
        assert_eq!(s.count(), 0);
        assert!(s.is_empty());
        assert_eq!(s.first_set(), None);
        let m = BitMatrix::new(0);
        assert_eq!(m.order(), 0);
    }

    /// Deterministic pseudo-random bitset for kernel cross-checks.
    fn scrambled(nbits: usize, mut seed: u64) -> Bitset {
        let mut s = Bitset::new(nbits);
        for i in 0..nbits {
            // SplitMix64 step.
            seed = seed.wrapping_add(0x9e3779b97f4a7c15);
            let mut z = seed;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
            if (z ^ (z >> 31)) & 1 == 1 {
                s.insert(i);
            }
        }
        s
    }

    #[test]
    fn unrolled_intersection_count_matches_naive() {
        // Sweep capacities across the 4-word unroll boundary (0..4 remainder words).
        for nbits in [0usize, 1, 64, 65, 192, 256, 257, 500, 1024, 1030] {
            let a = scrambled(nbits, 7);
            let b = scrambled(nbits, 99);
            let naive: usize = a
                .words()
                .iter()
                .zip(b.words())
                .map(|(x, y)| (x & y).count_ones() as usize)
                .sum();
            assert_eq!(a.intersection_count(b.words()), naive, "nbits = {nbits}");
        }
    }

    #[test]
    fn intersect_into_matches_intersection_with_and_overwrites_stale_bits() {
        for nbits in [1usize, 63, 64, 200, 257, 1000] {
            let a = scrambled(nbits, 11);
            let b = scrambled(nbits, 23);
            // Start from a full (all-stale-bits) scratch to prove every word is written.
            let mut out = Bitset::full(nbits);
            let count = a.intersect_into(b.words(), &mut out);
            let expected = a.intersection_with(b.words());
            assert_eq!(out, expected, "nbits = {nbits}");
            assert_eq!(count, expected.count(), "nbits = {nbits}");
        }
    }

    #[test]
    fn clear_empties_and_keeps_capacity() {
        for nbits in [0usize, 1, 64, 130] {
            let mut s = Bitset::full(nbits);
            s.clear();
            assert!(s.is_empty(), "nbits = {nbits}");
            assert_eq!(s.capacity(), nbits);
            assert_eq!(s, Bitset::new(nbits));
        }
    }

    #[test]
    fn intersects_matches_intersection_count() {
        for nbits in [1usize, 63, 64, 65, 200, 1000] {
            for (s1, s2) in [(3u64, 4u64), (8, 8), (13, 21)] {
                let a = scrambled(nbits, s1);
                let b = scrambled(nbits, s2);
                assert_eq!(
                    a.intersects(b.words()),
                    a.intersection_count(b.words()) > 0,
                    "nbits = {nbits}, seeds ({s1}, {s2})"
                );
            }
        }
        // Disjoint sets, then one shared bit in the last word only.
        let mut a = Bitset::new(130);
        let mut b = Bitset::new(130);
        a.insert(0);
        b.insert(1);
        assert!(!a.intersects(b.words()));
        a.insert(129);
        b.insert(129);
        assert!(a.intersects(b.words()));
        assert!(!Bitset::new(0).intersects(&[]));
    }

    #[test]
    fn copy_from_replaces_contents() {
        let src = scrambled(130, 5);
        let mut dst = Bitset::full(130);
        dst.copy_from(&src);
        assert_eq!(dst, src);
    }

    #[test]
    fn pool_reuses_buffers_and_never_leaks_stale_bits() {
        let mut pool = BitsetPool::new(150);
        assert_eq!(pool.nbits(), 150);
        let a = scrambled(150, 1);
        let b = scrambled(150, 2);

        let copy = pool.acquire_copy(&a);
        assert_eq!(copy, a);
        pool.release(copy);

        // The recycled buffer still holds `a`'s bits; the next acquire must fully
        // overwrite them.
        let (inter, count) = pool.acquire_intersection(&b, a.words());
        let expected = b.intersection_with(a.words());
        assert_eq!(inter, expected);
        assert_eq!(count, expected.count());
        pool.release(inter);

        let copy2 = pool.acquire_copy(&b);
        assert_eq!(copy2, b);
    }

    #[test]
    fn pool_reset_retargets_capacity() {
        let mut pool = BitsetPool::new(64);
        let a = Bitset::full(64);
        let buf = pool.acquire_copy(&a);
        pool.release(buf);
        // Same capacity: cached buffers survive.
        pool.reset(64);
        assert_eq!(pool.nbits(), 64);
        // New capacity: the pool must hand out correctly sized buffers.
        pool.reset(130);
        assert_eq!(pool.nbits(), 130);
        let b = Bitset::full(130);
        let buf = pool.acquire_copy(&b);
        assert_eq!(buf.capacity(), 130);
        assert_eq!(buf, b);
    }
}
