//! The harness's own arithmetic: order statistics, the output hash, CPU
//! time from `/proc`. Everything here is pure and unit-tested, because a
//! bug here would move every number the benchmark reports.

use std::io::{self, Write};

/// Median of `values` (mean of the two middle values for an even count).
/// 0.0 for an empty slice, so a layer that took no samples reads as 0.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First and third quartile the way Python's
/// `statistics.quantiles(values, n=4)` computes them (the exclusive
/// method) — the acceptance procedure is defined in those terms, so the
/// `--sets` self-check must agree with it to the digit.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len();
    if m < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x);
    }
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Distance between the quartiles as a share of the median: the spread
/// the acceptance procedure holds against a metric's bound.
pub fn spread(values: &[f64]) -> f64 {
    let med = median(values);
    if med == 0.0 {
        return 0.0;
    }
    let (q1, q3) = quartiles(values);
    (q3 - q1) / med.abs()
}

/// 1-based rank (in ascending order) of the tail sample to report for `n`
/// samples: the 95th percentile when at least ten samples lie beyond it
/// (n >= 200), otherwise the highest rank that still has ten beyond it,
/// and never below the median.
pub fn tail_rank(n: usize) -> usize {
    if n == 0 {
        return 0;
    }
    let p95 = (n * 95).div_ceil(100);
    let ten_beyond = n.saturating_sub(10);
    p95.min(ten_beyond).max(n.div_ceil(2))
}

/// The tail sample chosen by [`tail_rank`] and the percentile it stands at.
pub fn tail(values: &[f64]) -> (f64, f64) {
    if values.is_empty() {
        return (0.0, 0.0);
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = tail_rank(v.len());
    (v[rank - 1], 100.0 * rank as f64 / v.len() as f64)
}

/// Self time of a pipeline layer measured by cumulative prefixes over the
/// same bytes: its prefix minus the previous one, never negative (two
/// noisy medians can cross when the layer does almost nothing).
pub fn prefix_self(prefix: f64, previous: f64) -> f64 {
    (prefix - previous).max(0.0)
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// A counting + hashing sink: FNV-1a folded over little-endian 64-bit
/// words (one multiply per eight bytes, so checking every byte of every
/// operation costs a few percent even on the output-heavy workload). A
/// partial word is carried across `write` calls, so the hash depends on
/// the byte stream only, not on how the writer chunked it.
#[derive(Clone)]
pub struct HashSink {
    hash: u64,
    len: u64,
    carry: [u8; 8],
    carried: usize,
}

impl Default for HashSink {
    fn default() -> Self {
        HashSink {
            hash: FNV_OFFSET,
            len: 0,
            carry: [0; 8],
            carried: 0,
        }
    }
}

impl HashSink {
    fn fold(&mut self, word: u64) {
        self.hash = (self.hash ^ word).wrapping_mul(FNV_PRIME);
    }

    /// Bytes written so far.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Hash of everything written so far (the trailing partial word is
    /// folded zero-padded together with the length, so `"a"` and `"a\0"`
    /// differ).
    pub fn digest(&self) -> u64 {
        let mut tail = [0u8; 8];
        tail[..self.carried].copy_from_slice(&self.carry[..self.carried]);
        let mut h = self.clone();
        h.fold(u64::from_le_bytes(tail));
        h.fold(self.len);
        h.hash
    }

    /// Hash of one byte string.
    pub fn of(bytes: &[u8]) -> u64 {
        let mut h = HashSink::default();
        h.update(bytes);
        h.digest()
    }

    /// Absorb `bytes`.
    pub fn update(&mut self, mut bytes: &[u8]) {
        self.len += bytes.len() as u64;
        if self.carried > 0 {
            let take = (8 - self.carried).min(bytes.len());
            self.carry[self.carried..self.carried + take].copy_from_slice(&bytes[..take]);
            self.carried += take;
            bytes = &bytes[take..];
            if self.carried < 8 {
                return;
            }
            self.fold(u64::from_le_bytes(self.carry));
            self.carried = 0;
        }
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.fold(u64::from_le_bytes(w.try_into().expect("chunks_exact(8)")));
        }
        let rest = words.remainder();
        self.carry[..rest.len()].copy_from_slice(rest);
        self.carried = rest.len();
    }
}

impl Write for HashSink {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.update(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Bytes of synthetic markup the reference computation scans.
const REFERENCE_BYTES: usize = 256 * 1024;
/// Time of one reference scan on the quiet reference box, nanoseconds.
const REFERENCE_NS: f64 = 252_000.0;

/// `<tN a="v">words</tN>` elements from a fixed LCG.
fn reference_markup() -> Vec<u8> {
    let mut data = Vec::with_capacity(REFERENCE_BYTES + 64);
    let mut x = 0x2545_f491_4f6c_dd1du64;
    while data.len() < REFERENCE_BYTES {
        x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
        let tag = (x >> 33) % 97;
        data.extend(format!("<t{tag} a=\"{}\">", x % 1000).bytes());
        for w in 0..(x >> 20) % 9 {
            data.extend(format!("w{} ", (x >> (w + 3)) % 4096).bytes());
        }
        data.extend(format!("</t{tag}>").bytes());
    }
    data
}

/// The reference computation: a scan that branches on every byte, hashes
/// every tag name and counts it in a table — the instruction mix of a
/// tokenizer with a symbol table, in code no later change can touch.
/// Returns (open elements left, spaces seen).
fn reference_scan(data: &[u8]) -> (i64, u64) {
    let mut slots = [0u32; 1024];
    let (mut i, mut depth, mut spaces) = (0usize, 0i64, 0u64);
    while i < data.len() {
        if data[i] != b'<' {
            spaces += u64::from(data[i] == b' ');
            i += 1;
            continue;
        }
        let closing = data.get(i + 1) == Some(&b'/');
        let mut j = i + 1 + usize::from(closing);
        let mut name = FNV_OFFSET;
        while j < data.len() && !matches!(data[j], b' ' | b'>') {
            name = (name ^ u64::from(data[j])).wrapping_mul(FNV_PRIME);
            j += 1;
        }
        if closing {
            depth -= 1;
        } else {
            depth += 1;
            slots[(name >> 20) as usize & 1023] += 1;
        }
        i = j;
    }
    std::hint::black_box(slots);
    (depth, spaces)
}

/// How much slower than the quiet reference box this machine runs right
/// now: the median of three timed reference scans over their nominal
/// time (~0.8 ms in all).
///
/// The reference box is a shared micro-VM that runs the *same* code
/// 5-50 % slower for minutes at a time. The slowdown hits the reference
/// scan and the engine alike, so every timing the benchmark reports is
/// divided by the factor measured right beside it: it reads as the time
/// on the quiet reference box, and stays comparable between a run in a
/// quiet minute and one in a noisy minute. Raw wall times are printed
/// beside the reported ones.
pub fn speed_factor() -> f64 {
    static MARKUP: std::sync::OnceLock<Vec<u8>> = std::sync::OnceLock::new();
    let data = MARKUP.get_or_init(reference_markup);
    let mut ns = [0.0; 3];
    for sample in &mut ns {
        let t0 = std::time::Instant::now();
        std::hint::black_box(reference_scan(std::hint::black_box(data)));
        *sample = t0.elapsed().as_nanos() as f64;
    }
    median(&ns) / REFERENCE_NS
}

/// Keeps a current [`speed_factor`], re-measuring it when the latest
/// reading is older than 10 ms: beside every operation on the large
/// documents, once per ~100 operations on the 8 KiB ones (where the
/// 0.8 ms a reading takes are 7 % of the wall time). The current factor
/// is the median of the last five readings: the slowdowns to cancel last
/// seconds to minutes, while a single reading can catch an interrupt.
#[derive(Default)]
pub struct Pacer {
    /// Every reading taken.
    pub readings: Vec<f64>,
    read_at: Option<std::time::Instant>,
}

impl Pacer {
    pub fn speed(&mut self) -> f64 {
        let stale = std::time::Duration::from_millis(10);
        if self.read_at.is_none_or(|at| at.elapsed() > stale) {
            self.readings.push(speed_factor());
            self.read_at = Some(std::time::Instant::now());
        }
        median(&self.readings[self.readings.len().saturating_sub(5)..])
    }

    /// Median reading (1.0 without readings).
    pub fn median(&self) -> f64 {
        if self.readings.is_empty() {
            1.0
        } else {
            median(&self.readings)
        }
    }
}

/// `utime + stime` in clock ticks from the text of `/proc/<pid>/stat`.
/// The command name (field 2) is parenthesised and may itself contain
/// spaces and parentheses, so fields are counted from the *last* `)`.
pub fn parse_stat_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    // After the command: state is field 3, so utime (14) and stime (15)
    // are the 12th and 13th fields of `rest`.
    let mut fields = rest.split_ascii_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// User + system CPU time of this process in milliseconds. Linux reports
/// it in clock ticks of `USER_HZ`, which is 100 on every Linux ABI; 0.0
/// where `/proc` is unavailable.
pub fn process_cpu_ms() -> f64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| parse_stat_ticks(&s))
        .map_or(0.0, |ticks| ticks as f64 * 10.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        assert_eq!(quartiles(&[40.0, 10.0, 20.0]), (10.0, 40.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert!((spread(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        // 200 samples: p95 is rank 190, exactly ten beyond.
        assert_eq!(tail_rank(200), 190);
        assert_eq!(tail_rank(1000), 950);
        // 100 samples: p95 would leave five beyond; rank 90 leaves ten.
        assert_eq!(tail_rank(100), 90);
        // Too few samples for any tail: fall back to the median.
        assert_eq!(tail_rank(15), 8);
        assert_eq!(tail_rank(1), 1);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&v), (90.0, 90.0));
    }

    #[test]
    fn prefix_self_time_subtracts_and_clamps() {
        assert_eq!(prefix_self(5.0, 3.0), 2.0);
        assert_eq!(prefix_self(3.0, 3.5), 0.0);
    }

    #[test]
    fn hash_depends_on_bytes_not_on_chunking() {
        let data: Vec<u8> = (0..1000u32).map(|i| (i * 7 % 251) as u8).collect();
        let whole = HashSink::of(&data);
        for split in [1usize, 3, 7, 8, 9, 64, 999] {
            let mut h = HashSink::default();
            for piece in data.chunks(split) {
                h.write_all(piece).unwrap();
            }
            assert_eq!(h.digest(), whole, "split {split}");
            assert_eq!(h.len(), 1000);
        }
        assert_ne!(HashSink::of(b"a"), HashSink::of(b"a\0"));
        assert_ne!(HashSink::of(b"abcdefgh1"), HashSink::of(b"abcdefgh2"));
        assert_ne!(HashSink::of(b""), HashSink::of(b"\0"));
    }

    #[test]
    fn reference_markup_is_balanced_and_the_scan_sees_it_all() {
        let data = reference_markup();
        assert!(data.len() >= REFERENCE_BYTES);
        let (depth, spaces) = reference_scan(&data);
        assert_eq!(depth, 0);
        assert_eq!(spaces, data.iter().filter(|&&b| b == b' ').count() as u64);
        assert_eq!(reference_scan(b"<a x=\"1\">w1 w2 <b>"), (2, 3));
        let f = speed_factor();
        assert!(f > 0.05 && f < 50.0, "factor {f}");
    }

    #[test]
    fn stat_parsing_survives_hostile_command_names() {
        let stat =
            "1234 (a b) c) R 1 1 1 0 -1 4194560 100 0 0 0 37 5 0 0 20 0 1 0 100 1000 10 rest";
        assert_eq!(parse_stat_ticks(stat), Some(42));
        assert_eq!(parse_stat_ticks("no parenthesis"), None);
        assert_eq!(parse_stat_ticks("1 (x) R 1 2"), None);
    }
}
