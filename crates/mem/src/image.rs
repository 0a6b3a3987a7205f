//! Deterministic synthetic kernel content.
//!
//! Section content is generated from a per-section seed (derived from the
//! image seed and the section name) so that the same layout + seed always
//! yields the same bytes — and therefore the same authorized digests —
//! across runs, processes, and machines. Syscall-table sections get
//! plausible-looking 8-byte function pointers into the text section rather
//! than noise, so the sample rootkit's hijack looks like the real thing
//! (swap one pointer for another).

use crate::layout::{KernelLayout, SectionKind, SYSCALL_ENTRY_SIZE};

/// Fills a buffer with the synthetic image for `layout`.
///
/// The buffer length must equal `layout.total_size()`.
///
/// # Panics
///
/// Panics if `buf.len() != layout.total_size()`.
///
/// # Example
///
/// ```
/// use satin_mem::{KernelLayout, image};
/// let layout = KernelLayout::paper();
/// let a = image::generate(&layout, 42);
/// let b = image::generate(&layout, 42);
/// assert_eq!(a, b); // fully deterministic
/// assert_ne!(a, image::generate(&layout, 43));
/// ```
pub fn fill(layout: &KernelLayout, seed: u64, buf: &mut [u8]) {
    assert_eq!(
        buf.len() as u64,
        layout.total_size(),
        "buffer size mismatch"
    );
    let base = layout.base();
    for section in layout.sections() {
        // lint:allow(cast-truncation) — section offsets/lengths fit the
        // image buffer, whose length is a usize by construction.
        let start = section.range().start().offset_from(base) as usize;
        let len = section.range().len() as usize; // lint:allow(cast-truncation) — bounded by buf.len()
        let chunk = buf
            .get_mut(start..start + len)
            .expect("section range within layout buffer (asserted above)");
        let sseed = mix(seed, hash_name(section.name()));
        match section.kind() {
            SectionKind::Bss => chunk.fill(0),
            SectionKind::SyscallTable => fill_syscall_table(layout, sseed, chunk),
            _ => fill_noise(sseed, chunk),
        }
    }
}

/// Allocates and fills a fresh image buffer.
pub fn generate(layout: &KernelLayout, seed: u64) -> Vec<u8> {
    // lint:allow(cast-truncation) — the paper layout is a few MiB; a u64
    // size that overflows usize could not be allocated anyway.
    let mut buf = vec![0u8; layout.total_size() as usize];
    fill(layout, seed, &mut buf);
    buf
}

/// A plausible replacement pointer for a hijacked syscall entry: an address
/// inside the text section that differs from the genuine entry.
pub fn hijacked_entry_bytes(layout: &KernelLayout, seed: u64) -> [u8; 8] {
    let text = layout
        .sections()
        .iter()
        .filter(|s| s.kind() == SectionKind::Text)
        .max_by_key(|s| s.range().len())
        .expect("layout has a text section");
    let off = mix(seed, 0x6a61_636b) % text.range().len().max(1);
    let addr = text.range().start().value() + (off & !0x3); // 4-byte aligned
    addr.to_le_bytes()
}

fn fill_syscall_table(layout: &KernelLayout, seed: u64, chunk: &mut [u8]) {
    // Entries point into the text section at deterministic offsets.
    let text = layout
        .sections()
        .iter()
        .filter(|s| s.kind() == SectionKind::Text)
        .max_by_key(|s| s.range().len());
    let (text_base, text_len) = match text {
        Some(t) => (t.range().start().value(), t.range().len()),
        None => (layout.base().value(), layout.total_size()),
    };
    // lint:allow(cast-truncation) — SYSCALL_ENTRY_SIZE is 8.
    let entry_size = SYSCALL_ENTRY_SIZE as usize;
    for (i, entry) in chunk.chunks_exact_mut(entry_size).enumerate() {
        let off = mix(seed, i as u64) % text_len.max(1);
        let addr = text_base + (off & !0x3);
        entry.copy_from_slice(&addr.to_le_bytes());
    }
    // Tail bytes (if the section size is not a multiple of 8) are zero.
    let tail = chunk.len() - chunk.len() % entry_size;
    for b in chunk
        .get_mut(tail..)
        .expect("tail <= len: it is len minus a remainder")
    {
        *b = 0;
    }
}

fn fill_noise(seed: u64, chunk: &mut [u8]) {
    // SplitMix64 stream, one little-endian word per 8 bytes: fast and fully
    // deterministic. A partial last word takes the low bytes of its value.
    let mut state = seed;
    let mut next = || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        mix(state, 0).to_le_bytes()
    };
    let mut words = chunk.chunks_exact_mut(8);
    for word in &mut words {
        word.copy_from_slice(&next());
    }
    let tail = words.into_remainder();
    if !tail.is_empty() {
        let v = next();
        tail.copy_from_slice(v.get(..tail.len()).expect("tail is shorter than a word"));
    }
}

fn hash_name(name: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn mix(a: u64, b: u64) -> u64 {
    let mut z = a ^ b.rotate_left(31);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::GETTID_NR;

    #[test]
    fn deterministic_per_seed() {
        let l = KernelLayout::paper();
        assert_eq!(generate(&l, 7), generate(&l, 7));
        assert_ne!(generate(&l, 7), generate(&l, 8));
    }

    #[test]
    fn bss_is_zero() {
        let l = KernelLayout::paper();
        let img = generate(&l, 1);
        let bss = l.section(".bss.part0").unwrap();
        let start = bss.range().start().offset_from(l.base()) as usize;
        let len = bss.range().len() as usize;
        assert!(img[start..start + len].iter().all(|b| *b == 0));
    }

    #[test]
    fn text_is_not_zero() {
        let l = KernelLayout::paper();
        let img = generate(&l, 1);
        let text = l.section(".text").unwrap();
        let start = text.range().start().offset_from(l.base()) as usize;
        assert!(img[start..start + 64].iter().any(|b| *b != 0));
    }

    #[test]
    fn syscall_entries_point_into_text() {
        let l = KernelLayout::paper();
        let img = generate(&l, 1);
        let text = l.section(".text").unwrap().range();
        let addr = l.syscall_entry_addr(GETTID_NR);
        let off = addr.offset_from(l.base()) as usize;
        let ptr = u64::from_le_bytes(img[off..off + 8].try_into().unwrap());
        assert!(
            text.contains(crate::PhysAddr::new(ptr)),
            "{ptr:#x} not in {text}"
        );
    }

    #[test]
    fn hijacked_entry_differs_from_genuine() {
        let l = KernelLayout::paper();
        let img = generate(&l, 1);
        let addr = l.syscall_entry_addr(GETTID_NR);
        let off = addr.offset_from(l.base()) as usize;
        let genuine: [u8; 8] = img[off..off + 8].try_into().unwrap();
        let hijacked = hijacked_entry_bytes(&l, 99);
        assert_ne!(genuine, hijacked);
        // Still a text address — stealthy to a naive pointer-range check.
        let text = l.section(".text").unwrap().range();
        let ptr = u64::from_le_bytes(hijacked);
        assert!(text.contains(crate::PhysAddr::new(ptr)));
    }

    #[test]
    fn different_sections_get_different_content() {
        let l = KernelLayout::paper();
        let img = generate(&l, 1);
        let a = l.section(".data.part0").unwrap();
        let b = l.section(".data.part1").unwrap();
        let ao = a.range().start().offset_from(l.base()) as usize;
        let bo = b.range().start().offset_from(l.base()) as usize;
        assert_ne!(&img[ao..ao + 256], &img[bo..bo + 256]);
    }

    fn fnv1a(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    /// Digests of the paper image recorded from the byte-at-a-time fill:
    /// the word-at-a-time fill must reproduce them exactly.
    #[test]
    fn paper_image_digests_are_pinned() {
        let l = KernelLayout::paper();
        for (seed, digest) in [(7u64, 0x8ad6_0486_553f_c1e1), (42, 0x98ed_fde9_0c56_e1ce)] {
            let img = generate(&l, seed);
            assert_eq!(img.len(), 11_916_240);
            assert_eq!(fnv1a(&img), digest, "seed {seed}");
        }
    }

    /// The byte-at-a-time SplitMix64 fill the word-at-a-time one replaced.
    fn fill_noise_bytewise(seed: u64, chunk: &mut [u8]) {
        let mut state = seed;
        for block in chunk.chunks_mut(8) {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let v = mix(state, 0);
            for (b, s) in block.iter_mut().zip(v.to_le_bytes()) {
                *b = s;
            }
        }
    }

    #[test]
    fn word_fill_matches_bytewise_fill_on_partial_words() {
        for len in [0usize, 1, 7, 8, 9, 15, 16, 1021] {
            let mut words = vec![0xAA; len];
            let mut bytes = vec![0x55; len];
            fill_noise(0xfeed, &mut words);
            fill_noise_bytewise(0xfeed, &mut bytes);
            assert_eq!(words, bytes, "len {len}");
        }
    }
}
