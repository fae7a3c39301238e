//! Sample statistics, the decision digest and the metric list a run prints.

use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::time::Duration;

/// Nearest-rank percentile `p` (0..=100) of `samples`; 0 for no samples.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

pub fn micros(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// A memory figure of this process from `/proc/self/status`, in MiB:
/// `VmRSS` is the resident set now, `VmHWM` its peak so far.
pub fn memory_mb(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Microseconds of a fixed computation owned by the benchmark: sorting
/// pseudo-random keys, filling and probing an ordered map, and
/// breadth-first searches over a grid with a hash map of distances.
pub fn reference() -> f64 {
    let mut keys: Vec<u64> = (0..8_000).map(|i| stream_seed(0x5eed, i)).collect();
    let start = std::time::Instant::now();
    keys.sort_unstable();
    let map: BTreeMap<u64, usize> = keys.iter().step_by(3).copied().zip(0..).collect();
    let hits: usize = keys.iter().filter_map(|k| map.get(k)).sum();
    const SIDE: usize = 24;
    let mut total = 0u64;
    for source in (0..SIDE * SIDE).step_by(37) {
        let mut distance = HashMap::from([(source, 0u64)]);
        let mut queue = VecDeque::from([source]);
        while let Some(v) = queue.pop_front() {
            let d = distance[&v];
            let (row, col) = (v / SIDE, v % SIDE);
            let neighbours = [
                (row > 0).then(|| v - SIDE),
                (row + 1 < SIDE).then(|| v + SIDE),
                (col > 0).then(|| v - 1),
                (col + 1 < SIDE).then(|| v + 1),
            ];
            for n in neighbours.into_iter().flatten() {
                if let Entry::Vacant(slot) = distance.entry(n) {
                    slot.insert(d + 1);
                    queue.push_back(n);
                    total += d + 1;
                }
            }
        }
    }
    std::hint::black_box((hits, total));
    micros(start.elapsed())
}

/// What [`reference`] takes on a quiet 2-core host: the speed end-to-end
/// times are reported at.
pub const REFERENCE_US: f64 = 2_000.0;

/// How much slower than [`REFERENCE_US`] the host ran [`reference`] during
/// a run. The benchmark's host is a shared virtual machine whose speed for
/// memory-bound work swings by up to half between runs minutes apart;
/// pure arithmetic does not slow down. Dividing a time by the median
/// slowdown of the same run cancels most of that swing, while any change
/// to the program still shows, since the reference is not its code.
#[derive(Debug, Default)]
pub struct Slowdown(Vec<f64>);

impl Slowdown {
    pub fn sample(&mut self) {
        self.0.push(reference() / REFERENCE_US);
    }

    pub fn extend(&mut self, other: &Slowdown) {
        self.0.extend_from_slice(&other.0);
    }

    pub fn factor(&self) -> f64 {
        if self.0.is_empty() {
            1.0
        } else {
            median(&self.0)
        }
    }
}

/// FNV-1a over the decisions of one pass: two passes that decide alike
/// digest alike, whatever their speed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn add(&mut self, value: u64) {
        for byte in value.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn add_str(&mut self, s: &str) {
        for byte in s.bytes() {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
        self.add(s.len() as u64);
    }

    pub fn value(self) -> u64 {
        self.0
    }
}

/// Named metrics in the order they were recorded.
#[derive(Debug, Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.0.retain(|(n, _, _)| *n != name);
        self.0.push((name, value, unit));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _, _)| n == name).map(|&(_, v, _)| v)
    }

    pub fn iter(&self) -> impl Iterator<Item = &(String, f64, &'static str)> {
        self.0.iter()
    }

    /// The metrics as the members of a JSON object.
    pub fn to_json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}", json_number(*value))
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// A finite number in JSON syntax, with all its digits.
pub fn json_number(value: f64) -> String {
    if value == value.trunc() && value.abs() < 1e15 {
        format!("{value:.1}")
    } else {
        format!("{value}")
    }
}

/// A seed for one input stream, derived from the run seed and a stream tag
/// (SplitMix64 finaliser, so nearby run seeds give unrelated streams).
pub fn stream_seed(seed: u64, tag: u64) -> u64 {
    let mut z = seed ^ tag.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&samples, 50.0), 50.0);
        assert_eq!(percentile(&samples, 99.0), 99.0);
        assert_eq!(percentile(&samples, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }
}
