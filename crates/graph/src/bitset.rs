//! A compact register set used pervasively by loop detection.
//!
//! `(i, e_jk)`-loop detection (Definition 4) performs many set-difference
//! emptiness tests of the form `X_jk − (X_{l_1} ∪ … ∪ X_{l_p}) ≠ ∅` in the
//! inner loop of a path search, so register sets are represented as packed
//! 64-bit-word bitsets rather than tree sets.

use crate::RegisterId;
use std::fmt;

const WORD_BITS: usize = 64;

/// A fixed-universe set of [`RegisterId`]s backed by packed `u64` words.
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct RegSet {
    words: Vec<u64>,
    universe: usize,
}

impl RegSet {
    /// Creates an empty set over a universe of `universe` registers
    /// (`0..universe`).
    pub fn new(universe: usize) -> Self {
        RegSet {
            words: vec![0; universe.div_ceil(WORD_BITS)],
            universe,
        }
    }

    /// Creates a set over `universe` registers containing the given members.
    ///
    /// # Panics
    ///
    /// Panics if any member is outside the universe.
    pub fn from_iter_in<I: IntoIterator<Item = RegisterId>>(universe: usize, iter: I) -> Self {
        let mut s = RegSet::new(universe);
        for r in iter {
            s.insert(r);
        }
        s
    }

    /// The size of the universe this set draws from.
    pub fn universe(&self) -> usize {
        self.universe
    }

    /// Inserts a register; returns true if it was newly added.
    ///
    /// # Panics
    ///
    /// Panics if the register is outside the universe.
    pub fn insert(&mut self, r: RegisterId) -> bool {
        let i = r.index();
        assert!(
            i < self.universe,
            "register {r} outside universe {}",
            self.universe
        );
        let w = &mut self.words[i / WORD_BITS];
        let mask = 1u64 << (i % WORD_BITS);
        let fresh = *w & mask == 0;
        *w |= mask;
        fresh
    }

    /// Removes a register; returns true if it was present.
    pub fn remove(&mut self, r: RegisterId) -> bool {
        let i = r.index();
        if i >= self.universe {
            return false;
        }
        let w = &mut self.words[i / WORD_BITS];
        let mask = 1u64 << (i % WORD_BITS);
        let present = *w & mask != 0;
        *w &= !mask;
        present
    }

    /// Membership test.
    pub fn contains(&self, r: RegisterId) -> bool {
        let i = r.index();
        i < self.universe && self.words[i / WORD_BITS] & (1u64 << (i % WORD_BITS)) != 0
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// True if the set has no members.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// In-place union with `other`.
    ///
    /// # Panics
    ///
    /// Panics if the universes differ.
    pub fn union_with(&mut self, other: &RegSet) {
        assert_eq!(self.universe, other.universe, "universe mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }

    /// In-place intersection with `other`.
    pub fn intersect_with(&mut self, other: &RegSet) {
        assert_eq!(self.universe, other.universe, "universe mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= b;
        }
    }

    /// In-place difference (`self − other`).
    pub fn difference_with(&mut self, other: &RegSet) {
        assert_eq!(self.universe, other.universe, "universe mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= !b;
        }
    }

    /// Returns `self ∪ other` as a new set.
    pub fn union(&self, other: &RegSet) -> RegSet {
        let mut s = self.clone();
        s.union_with(other);
        s
    }

    /// Returns `self ∩ other` as a new set.
    pub fn intersection(&self, other: &RegSet) -> RegSet {
        let mut s = self.clone();
        s.intersect_with(other);
        s
    }

    /// Returns `self − other` as a new set.
    pub fn difference(&self, other: &RegSet) -> RegSet {
        let mut s = self.clone();
        s.difference_with(other);
        s
    }

    /// True if `self − other` is empty, i.e. `self ⊆ other`.
    ///
    /// This is the hot operation of loop detection: condition checks of
    /// Definition 4 all have the form "`A − B ≠ ∅`", i.e. `!A.is_subset(B)`.
    pub fn is_subset(&self, other: &RegSet) -> bool {
        assert_eq!(self.universe, other.universe, "universe mismatch");
        self.words
            .iter()
            .zip(&other.words)
            .all(|(a, b)| a & !b == 0)
    }

    /// True if the two sets share no member.
    pub fn is_disjoint(&self, other: &RegSet) -> bool {
        assert_eq!(self.universe, other.universe, "universe mismatch");
        self.words.iter().zip(&other.words).all(|(a, b)| a & b == 0)
    }

    /// Iterates over members in ascending order.
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            set: self,
            word: 0,
            bits: self.words.first().copied().unwrap_or(0),
        }
    }

    /// Removes all members.
    pub fn clear(&mut self) {
        self.words.iter_mut().for_each(|w| *w = 0);
    }

    /// Smallest member, if any.
    pub fn first(&self) -> Option<RegisterId> {
        self.iter().next()
    }
}

/// Iterator over the members of a [`RegSet`] in ascending order.
pub struct Iter<'a> {
    set: &'a RegSet,
    word: usize,
    bits: u64,
}

impl Iterator for Iter<'_> {
    type Item = RegisterId;

    fn next(&mut self) -> Option<RegisterId> {
        loop {
            if self.bits != 0 {
                let bit = self.bits.trailing_zeros() as usize;
                self.bits &= self.bits - 1;
                return Some(RegisterId((self.word * WORD_BITS + bit) as u32));
            }
            self.word += 1;
            if self.word >= self.set.words.len() {
                return None;
            }
            self.bits = self.set.words[self.word];
        }
    }
}

impl<'a> IntoIterator for &'a RegSet {
    type Item = RegisterId;
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

impl fmt::Debug for RegSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl fmt::Display for RegSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (n, r) in self.iter().enumerate() {
            if n > 0 {
                write!(f, ",")?;
            }
            write!(f, "{r}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rs(universe: usize, members: &[u32]) -> RegSet {
        RegSet::from_iter_in(universe, members.iter().map(|&m| RegisterId(m)))
    }

    #[test]
    fn insert_contains_remove() {
        let mut s = RegSet::new(200);
        assert!(s.insert(RegisterId(0)));
        assert!(s.insert(RegisterId(64)));
        assert!(s.insert(RegisterId(199)));
        assert!(!s.insert(RegisterId(64)));
        assert!(s.contains(RegisterId(0)));
        assert!(s.contains(RegisterId(64)));
        assert!(s.contains(RegisterId(199)));
        assert!(!s.contains(RegisterId(1)));
        assert_eq!(s.len(), 3);
        assert!(s.remove(RegisterId(64)));
        assert!(!s.remove(RegisterId(64)));
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn set_algebra() {
        let a = rs(130, &[1, 2, 3, 100]);
        let b = rs(130, &[2, 3, 4, 129]);
        assert_eq!(a.union(&b), rs(130, &[1, 2, 3, 4, 100, 129]));
        assert_eq!(a.intersection(&b), rs(130, &[2, 3]));
        assert_eq!(a.difference(&b), rs(130, &[1, 100]));
        assert!(!a.is_subset(&b));
        assert!(rs(130, &[2, 3]).is_subset(&b));
        assert!(a.is_disjoint(&rs(130, &[5, 6])));
        assert!(!a.is_disjoint(&b));
    }

    #[test]
    fn empty_and_clear() {
        let mut s = rs(70, &[0, 69]);
        assert!(!s.is_empty());
        s.clear();
        assert!(s.is_empty());
        assert_eq!(s.len(), 0);
        assert!(RegSet::new(0).is_empty());
    }

    #[test]
    fn iteration_is_sorted() {
        let s = rs(300, &[250, 3, 64, 65, 0]);
        let got: Vec<u32> = s.iter().map(|r| r.0).collect();
        assert_eq!(got, vec![0, 3, 64, 65, 250]);
        assert_eq!(s.first(), Some(RegisterId(0)));
    }

    #[test]
    fn subset_matches_difference_emptiness() {
        let a = rs(66, &[1, 65]);
        let b = rs(66, &[1, 2, 65]);
        assert_eq!(a.is_subset(&b), a.difference(&b).is_empty());
        assert_eq!(b.is_subset(&a), b.difference(&a).is_empty());
    }

    #[test]
    #[should_panic(expected = "universe mismatch")]
    fn universe_mismatch_panics() {
        let _ = rs(10, &[1]).union(&rs(20, &[1]));
    }

    #[test]
    fn display_and_debug() {
        let s = rs(10, &[1, 3]);
        assert_eq!(s.to_string(), "{x1,x3}");
        assert_eq!(format!("{s:?}"), "{RegisterId(1), RegisterId(3)}");
    }
}
