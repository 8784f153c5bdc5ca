//! The growth rule of a session's long-lived stores.
//!
//! A `Vec` doubles its capacity when it runs out, so a store that ends a
//! run just past a power of two holds up to twice what it needs for the
//! rest of the session. The stores that grow with the document — the
//! tokenizer window, the buffer's payload store and its role overflow —
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
    fn the_limit_is_in_bytes() {
        let mut v = vec![0u64; DOUBLING_LIMIT / 8];
        reserve(&mut v, 1);
        assert_eq!(v.capacity(), DOUBLING_LIMIT / 8 * 9 / 8);
    }
}
