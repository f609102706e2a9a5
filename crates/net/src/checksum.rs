//! The internet checksum (RFC 1071), used by IPv4 headers and UDP.

use std::net::Ipv4Addr;

/// One's-complement sum of `data` read as big-endian 32-bit words, an
/// odd tail padded with zero, returned *before* the final fold and
/// complement. A 32-bit word is two 16-bit words whose carries are
/// deferred into the upper half of the 64-bit accumulator and folded
/// back once at the end (RFC 1071 §2, "deferred carries"); `data` must
/// start at an even offset of the checksummed stream.
#[inline]
fn sum(data: &[u8], mut acc: u64) -> u64 {
    let (words, tail) = data.as_chunks::<4>();
    for w in words {
        acc += u64::from(u32::from_be_bytes(*w));
    }
    // Spelled out, not copied into a zeroed word: a variable-length
    // copy is a `memcpy` call and a store-forwarding stall.
    let last = match *tail {
        [a] => [a, 0, 0, 0],
        [a, b] => [a, b, 0, 0],
        [a, b, c] => [a, b, c, 0],
        _ => [0; 4],
    };
    acc + u64::from(u32::from_be_bytes(last))
}

/// Fold a 64-bit sum to 16 bits with end-around carries. Two folds take
/// it to 32 bits (the first leaves at most `2^32 - 1 + (acc >> 32)`, the
/// second at most `2^32 - 1`), two more to 16.
#[inline]
fn fold(acc: u64) -> u16 {
    let acc = (acc & 0xffff_ffff) + (acc >> 32);
    let acc = (acc & 0xffff_ffff) + (acc >> 32);
    let acc = (acc & 0xffff) + (acc >> 16);
    let acc = (acc & 0xffff) + (acc >> 16);
    acc as u16
}

/// Compute the internet checksum of `data` (e.g. an IPv4 header with its
/// checksum field zeroed).
pub fn checksum(data: &[u8]) -> u16 {
    !fold(sum(data, 0))
}

/// Verify data that *includes* its checksum field: valid iff the folded
/// sum is `0xffff`.
#[inline]
pub fn is_valid(data: &[u8]) -> bool {
    fold(sum(data, 0)) == 0xffff
}

/// Folded (uncomplemented) one's-complement sum over the IPv4
/// pseudo-header plus the UDP segment. For a segment that *includes* a
/// correct checksum field this returns `0xffff` — the validation form.
#[inline]
pub fn udp_checksum_raw(src: Ipv4Addr, dst: Ipv4Addr, segment: &[u8]) -> u16 {
    let mut acc = u64::from(src.to_bits()) + u64::from(dst.to_bits());
    acc += 17; // protocol = UDP
    acc += segment.len() as u64;
    fold(sum(segment, acc))
}

/// UDP checksum over the IPv4 pseudo-header plus the UDP header+payload
/// (`segment`, with its checksum field zeroed). Per RFC 768 a computed
/// value of zero is transmitted as `0xffff`.
pub fn udp_checksum(src: Ipv4Addr, dst: Ipv4Addr, segment: &[u8]) -> u16 {
    let c = !udp_checksum_raw(src, dst, segment);
    if c == 0 {
        0xffff
    } else {
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::collection::vec;
    use proptest::prelude::*;

    /// RFC 1071 §1 taken literally: add the bytes pair by pair as
    /// 16-bit big-endian words (an odd last byte padded with zero), and
    /// fold the carry back in after every addition.
    fn reference_sum(acc: u16, data: &[u8]) -> u16 {
        let mut acc = u32::from(acc);
        for pair in data.chunks(2) {
            acc += (u32::from(pair[0]) << 8) | u32::from(pair.get(1).copied().unwrap_or(0));
            if acc > 0xffff {
                acc -= 0xffff;
            }
        }
        acc as u16
    }

    /// The reference sum over RFC 768's pseudo-header and `segment`.
    fn reference_udp_sum(src: Ipv4Addr, dst: Ipv4Addr, segment: &[u8]) -> u16 {
        let mut pseudo = [0u8; 12];
        pseudo[..4].copy_from_slice(&src.octets());
        pseudo[4..8].copy_from_slice(&dst.octets());
        pseudo[9] = 17;
        pseudo[10..].copy_from_slice(&(segment.len() as u16).to_be_bytes());
        reference_sum(reference_sum(0, &pseudo), segment)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The word-wise sum agrees with the byte-wise reference on
        /// every entry point, at every length and parity.
        #[test]
        fn word_sum_equals_bytewise_reference(
            data in vec(any::<u8>(), 0..=1600),
            src in any::<u32>(),
            dst in any::<u32>(),
        ) {
            let (src, dst) = (Ipv4Addr::from_bits(src), Ipv4Addr::from_bits(dst));
            let sum = reference_sum(0, &data);
            prop_assert_eq!(checksum(&data), !sum);
            prop_assert_eq!(is_valid(&data), sum == 0xffff);
            let raw = reference_udp_sum(src, dst, &data);
            prop_assert_eq!(udp_checksum_raw(src, dst, &data), raw);
            let expect = if !raw == 0 { 0xffff } else { !raw };
            prop_assert_eq!(udp_checksum(src, dst, &data), expect);
        }

        /// Data that carries its own checksum validates, as `is_valid`
        /// and as the reference: the valid side of `is_valid`, which
        /// random data almost never reaches.
        #[test]
        fn data_with_its_checksum_is_valid(mut data in vec(any::<u8>(), 2..=1600)) {
            let at = (data.len() / 2) & !1;
            data[at..at + 2].fill(0);
            let c = checksum(&data);
            data[at..at + 2].copy_from_slice(&c.to_be_bytes());
            prop_assert!(is_valid(&data));
            prop_assert_eq!(reference_sum(0, &data), 0xffff);
        }
    }

    #[test]
    fn rfc1071_example() {
        // Classic example from RFC 1071 §3: the byte sequence below has a
        // one's complement sum of 0xddf2, so checksum = !0xddf2 = 0x220d.
        let data = [0x00u8, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7];
        assert_eq!(checksum(&data), !0xddf2);
    }

    #[test]
    fn verify_accepts_own_output() {
        let mut data = vec![
            0x45u8, 0x00, 0x00, 0x1c, 0x12, 0x34, 0x00, 0x00, 0x40, 0x11, 0, 0, 10, 0, 0, 1, 10, 0,
            0, 2,
        ];
        let c = checksum(&data);
        data[10] = (c >> 8) as u8;
        data[11] = c as u8;
        assert!(is_valid(&data));
        // Corrupt one byte: must fail.
        data[0] ^= 0x01;
        assert!(!is_valid(&data));
    }

    #[test]
    fn odd_length_padded() {
        let data = [0xabu8, 0xcd, 0xef];
        // Manual: 0xabcd + 0xef00 = 0x19acd -> fold 0x9ace -> !0x9ace.
        assert_eq!(checksum(&data), !0x9ace);
    }

    #[test]
    fn udp_zero_maps_to_ffff() {
        // Find any payload whose checksum would be zero is hard; instead
        // assert the function never returns 0 over a sweep.
        for b in 0..=255u8 {
            let seg = [b, 0, 0, b];
            let c = udp_checksum(Ipv4Addr::new(1, 1, 1, 1), Ipv4Addr::new(2, 2, 2, 2), &seg);
            assert_ne!(c, 0);
        }
    }

    #[test]
    fn empty_data() {
        assert_eq!(checksum(&[]), 0xffff);
    }
}
