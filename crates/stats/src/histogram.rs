//! Integer-bucketed histograms and categorical distributions.

use std::collections::BTreeMap;

/// A histogram over `u64` keys (e.g. TTL deltas for Figure 2).
///
/// Keys are exact — no binning is applied — which matches the paper's
/// figures where the x-axis is a small discrete quantity.
#[derive(Debug, Clone, Default)]
pub struct Histogram {
    counts: BTreeMap<u64, u64>,
    total: u64,
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Increments the count for `key` by one.
    pub fn add(&mut self, key: u64) {
        self.add_n(key, 1);
    }

    /// Increments the count for `key` by `n`.
    pub fn add_n(&mut self, key: u64, n: u64) {
        *self.counts.entry(key).or_insert(0) += n;
        self.total += n;
    }

    /// Count recorded for `key`.
    pub fn count(&self, key: u64) -> u64 {
        self.counts.get(&key).copied().unwrap_or(0)
    }

    /// Total of all counts.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Fraction of the total mass at `key`; 0.0 when empty.
    pub fn fraction(&self, key: u64) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.count(key) as f64 / self.total as f64
        }
    }

    /// The key with the largest count (smallest key wins ties), or `None`
    /// when empty.
    pub fn mode(&self) -> Option<u64> {
        self.counts
            .iter()
            .max_by(|a, b| a.1.cmp(b.1).then(b.0.cmp(a.0)))
            .map(|(k, _)| *k)
    }

    /// Iterates `(key, count)` in ascending key order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.counts.iter().map(|(k, v)| (*k, *v))
    }

    /// `(key, fraction)` pairs in ascending key order — the Figure 2 series.
    pub fn fractions(&self) -> Vec<(u64, f64)> {
        self.counts
            .iter()
            .map(|(k, v)| (*k, *v as f64 / self.total.max(1) as f64))
            .collect()
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (k, v) in other.iter() {
            self.add_n(k, v);
        }
    }

    /// True when no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }
}

/// A categorical distribution over string-labelled classes, used for the
/// traffic-type breakdowns of Figures 5 and 6 (TCP, ACK, PSH, …, OTHER).
///
/// Category order is the *insertion order of the schema*, fixed at
/// construction, so rendered tables always list categories the way the
/// paper's figures do. A single packet may count towards several categories
/// (a TCP SYN-ACK is TCP + SYN + ACK), so fractions do not sum to 1.
#[derive(Debug, Clone)]
pub struct CategoricalDist {
    labels: Vec<&'static str>,
    counts: Vec<u64>,
    /// Denominator: number of underlying items classified (not the sum of
    /// category counts, since categories overlap).
    items: u64,
}

impl CategoricalDist {
    /// Creates a distribution with a fixed category schema.
    pub fn new(labels: &[&'static str]) -> Self {
        Self {
            labels: labels.to_vec(),
            counts: vec![0; labels.len()],
            items: 0,
        }
    }

    /// Records one classified item hitting the categories named in `hits`.
    /// Unknown labels panic: the schema is fixed and a typo is a programmer
    /// error, not data.
    pub fn record(&mut self, hits: &[&str]) {
        self.items += 1;
        for hit in hits {
            let idx = self
                .labels
                .iter()
                .position(|l| l == hit)
                .unwrap_or_else(|| panic!("unknown category {hit:?}"));
            self.counts[idx] += 1;
        }
    }

    /// Records `n` identically-classified items hitting the categories
    /// whose schema indices are the set bits of `set` — what incremental
    /// accumulators use: they count items per classification and add each
    /// classification's total once, with no label lookup.
    ///
    /// # Panics
    /// Panics when `set` has a bit at or above the schema length.
    pub fn record_set(&mut self, set: u64, n: u64) {
        assert!(
            set.checked_shr(self.labels.len() as u32).unwrap_or(0) == 0,
            "category set {set:#x} outside a schema of {}",
            self.labels.len()
        );
        self.items += n;
        for (i, count) in self.counts.iter_mut().enumerate().take(64) {
            if set & (1 << i) != 0 {
                *count += n;
            }
        }
    }

    /// Number of items recorded.
    pub fn items(&self) -> u64 {
        self.items
    }

    /// Count for a category label.
    pub fn count(&self, label: &str) -> u64 {
        self.labels
            .iter()
            .position(|l| *l == label)
            .map(|i| self.counts[i])
            .unwrap_or(0)
    }

    /// Fraction of items hitting `label` (0.0 when nothing recorded).
    pub fn fraction(&self, label: &str) -> f64 {
        if self.items == 0 {
            0.0
        } else {
            self.count(label) as f64 / self.items as f64
        }
    }

    /// `(label, fraction)` pairs in schema order.
    pub fn fractions(&self) -> Vec<(&'static str, f64)> {
        self.labels
            .iter()
            .zip(&self.counts)
            .map(|(l, c)| (*l, *c as f64 / self.items.max(1) as f64))
            .collect()
    }

    /// Merges another distribution with the identical schema.
    ///
    /// # Panics
    /// Panics when schemas differ.
    pub fn merge(&mut self, other: &CategoricalDist) {
        assert_eq!(self.labels, other.labels, "schema mismatch");
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.items += other.items;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_counts_and_fractions() {
        let mut h = Histogram::new();
        h.add(2);
        h.add(2);
        h.add(3);
        h.add_n(8, 2);
        assert_eq!(h.total(), 5);
        assert_eq!(h.count(2), 2);
        assert_eq!(h.count(5), 0);
        assert!((h.fraction(2) - 0.4).abs() < 1e-12);
        assert_eq!(h.mode(), Some(2)); // ties broken towards smaller key
    }

    #[test]
    fn histogram_mode_tie_prefers_smaller_key() {
        let mut h = Histogram::new();
        h.add_n(4, 3);
        h.add_n(2, 3);
        assert_eq!(h.mode(), Some(2));
    }

    #[test]
    fn histogram_empty() {
        let h = Histogram::new();
        assert!(h.is_empty());
        assert_eq!(h.mode(), None);
        assert_eq!(h.fraction(1), 0.0);
    }

    #[test]
    fn histogram_merge() {
        let mut a = Histogram::new();
        a.add(1);
        let mut b = Histogram::new();
        b.add(1);
        b.add(2);
        a.merge(&b);
        assert_eq!(a.count(1), 2);
        assert_eq!(a.count(2), 1);
        assert_eq!(a.total(), 3);
    }

    #[test]
    fn histogram_iter_ascending() {
        let mut h = Histogram::new();
        h.add(9);
        h.add(1);
        h.add(4);
        let keys: Vec<u64> = h.iter().map(|(k, _)| k).collect();
        assert_eq!(keys, vec![1, 4, 9]);
    }

    #[test]
    fn categorical_overlapping_categories() {
        let mut d = CategoricalDist::new(&["TCP", "SYN", "ACK", "UDP"]);
        d.record(&["TCP", "SYN", "ACK"]); // SYN-ACK
        d.record(&["TCP", "ACK"]);
        d.record(&["UDP"]);
        assert_eq!(d.items(), 3);
        assert!((d.fraction("TCP") - 2.0 / 3.0).abs() < 1e-12);
        assert!((d.fraction("ACK") - 2.0 / 3.0).abs() < 1e-12);
        assert!((d.fraction("SYN") - 1.0 / 3.0).abs() < 1e-12);
        assert!((d.fraction("UDP") - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn categorical_record_set_matches_labels() {
        let mut by_label = CategoricalDist::new(&["TCP", "SYN", "ACK", "UDP"]);
        for _ in 0..4 {
            by_label.record(&["TCP", "SYN", "ACK"]);
        }
        by_label.record(&["UDP"]);
        let mut by_set = CategoricalDist::new(&["TCP", "SYN", "ACK", "UDP"]);
        by_set.record_set(0b0111, 4);
        by_set.record_set(0b1000, 1);
        assert_eq!(by_set.items(), by_label.items());
        assert_eq!(by_set.fractions(), by_label.fractions());
    }

    #[test]
    #[should_panic(expected = "outside a schema of 2")]
    fn categorical_record_set_outside_schema_panics() {
        let mut d = CategoricalDist::new(&["TCP", "UDP"]);
        d.record_set(0b100, 1);
    }

    #[test]
    #[should_panic(expected = "unknown category")]
    fn categorical_unknown_label_panics() {
        let mut d = CategoricalDist::new(&["TCP"]);
        d.record(&["GRE"]);
    }

    #[test]
    fn categorical_merge_same_schema() {
        let mut a = CategoricalDist::new(&["TCP", "UDP"]);
        a.record(&["TCP"]);
        let mut b = CategoricalDist::new(&["TCP", "UDP"]);
        b.record(&["UDP"]);
        b.record(&["TCP"]);
        a.merge(&b);
        assert_eq!(a.items(), 3);
        assert_eq!(a.count("TCP"), 2);
        assert_eq!(a.count("UDP"), 1);
    }

    #[test]
    #[should_panic(expected = "schema mismatch")]
    fn categorical_merge_schema_mismatch_panics() {
        let mut a = CategoricalDist::new(&["TCP"]);
        let b = CategoricalDist::new(&["UDP"]);
        a.merge(&b);
    }

    #[test]
    fn categorical_fraction_order_stable() {
        let mut d = CategoricalDist::new(&["Z", "A"]);
        d.record(&["A"]);
        let f = d.fractions();
        assert_eq!(f[0].0, "Z");
        assert_eq!(f[1].0, "A");
    }
}
