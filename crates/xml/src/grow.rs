//! The growth rule of a session's long-lived stores.
//!
//! A `Vec` doubles its capacity when it runs out, so a store that ends a
//! run just past a power of two holds up to twice what it needs for the
//! rest of the session. The stores that grow with the document — the
//! tokenizer's window and carry, the buffer's payload store and its role
//! overflow, and a lane's output between drains (through [`Sink`]) —
//! grow by [`reserve`] instead: by doubling while the store is under 64
//! KiB (exactly as `Vec` does, so a small document's stores keep the
//! sizes `Vec` gives them), and above that by an eighth of the current
//! capacity, or to what is needed if that is more. Growth stays geometric
//! — amortised O(1) per element — and the slack above the high-water is
//! at most an eighth, paid for with more reallocations: about twenty, not
//! four, to grow a store from 64 KiB to 750 KiB.

/// Bytes of capacity below which a store grows as `Vec` does (doubling).
const DOUBLING_LIMIT: usize = 64 * 1024;

/// Make room in `v` for at least `additional` more elements under the
/// store growth rule (see the [module docs](self)). Changes the capacity
/// only, never the length; allocates nothing when the room is there.
#[inline]
pub fn reserve<T>(v: &mut Vec<T>, additional: usize) {
    let need = v.len() + additional;
    if need <= v.capacity() {
        return;
    }
    let cap = v.capacity();
    if cap * std::mem::size_of::<T>() < DOUBLING_LIMIT {
        v.reserve(additional);
    } else {
        v.reserve_exact((cap + cap / 8).max(need) - v.len());
    }
}

/// A byte store as an [`io::Write`](std::io::Write) sink whose writes
/// make room by [`reserve`]: the engine's per-lane output between drains.
#[derive(Debug, Default)]
pub struct Sink(pub Vec<u8>);

impl std::io::Write for Sink {
    #[inline]
    fn write(&mut self, bytes: &[u8]) -> std::io::Result<usize> {
        reserve(&mut self.0, bytes.len());
        self.0.extend_from_slice(bytes);
        Ok(bytes.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn doubles_below_the_limit_then_grows_by_an_eighth() {
        let mut v: Vec<u8> = Vec::new();
        reserve(&mut v, 16);
        assert_eq!(v.capacity(), 16);
        v.resize(16, 0);
        reserve(&mut v, 1);
        assert_eq!(v.capacity(), 32, "doubling, as Vec grows");

        let mut v: Vec<u8> = Vec::new();
        reserve(&mut v, DOUBLING_LIMIT);
        v.resize(DOUBLING_LIMIT, 0);
        reserve(&mut v, 10);
        assert_eq!(v.capacity(), DOUBLING_LIMIT + DOUBLING_LIMIT / 8);
        assert_eq!(v.len(), DOUBLING_LIMIT, "the length is the caller's");
        // A request past an eighth gets what it needs.
        v.resize(v.capacity(), 0);
        let len = v.len();
        reserve(&mut v, len);
        assert_eq!(v.capacity(), 2 * len);
        // Room that is there allocates nothing.
        let (cap, len) = (v.capacity(), v.len());
        reserve(&mut v, cap - len);
        assert_eq!(v.capacity(), cap);
    }

    #[test]
    fn a_sink_grows_by_the_rule() {
        use std::io::Write;
        // A copy's output between two drains, a little past 64 KiB, in
        // the small writes a serializer makes: 72 KiB, not 128.
        let mut sink = Sink::default();
        for _ in 0..(64 * 1024 + 1024) / 8 {
            sink.write_all(b"<a>x</a>").unwrap();
        }
        assert!(sink.0.len() > DOUBLING_LIMIT);
        assert_eq!(sink.0.capacity(), DOUBLING_LIMIT + DOUBLING_LIMIT / 8);
    }

    #[test]
    fn the_limit_is_in_bytes() {
        let mut v = vec![0u64; DOUBLING_LIMIT / 8];
        reserve(&mut v, 1);
        assert_eq!(v.capacity(), DOUBLING_LIMIT / 8 * 9 / 8);
    }
}
