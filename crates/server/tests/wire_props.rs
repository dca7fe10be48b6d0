//! Property tests for the bitmap wire encodings: randomly generated bit
//! vectors and pyramid regions must survive the encode→decode round trip
//! with their observable behaviour intact — plus the framing laws of the
//! nonblocking [`FrameReader`], pinned against the blocking
//! [`read_frame`] path the loopback transport uses.

use proptest::prelude::*;
use sa_core::{BitVec, BitmapSafeRegion, PyramidComputer, PyramidConfig};
use sa_geometry::{Point, Rect};
use sa_server::netfront::FrameReader;
use sa_server::wire::read_frame;

/// The cell every generated pyramid lives in.
const CELL: (f64, f64) = (90.0, 90.0);

fn bool_strategy() -> impl Strategy<Value = bool> {
    (0u8..2).prop_map(|b| b == 1)
}

/// `(x, y, w, h)` quadruples that always form a valid rectangle inside
/// the test cell (possibly poking past the far edge — alarms may).
fn alarm_strategy() -> impl Strategy<Value = Rect> {
    (0.0..85.0f64, 0.0..85.0f64, 0.5..20.0f64, 0.5..20.0f64)
        .prop_map(|(x, y, w, h)| Rect::new(x, y, x + w, y + h).expect("w, h > 0"))
}

proptest! {
    #[test]
    fn bitvec_to_bytes_from_bytes_is_the_identity(
        bits in prop::collection::vec(bool_strategy(), 0..300usize)
    ) {
        let original: BitVec = bits.iter().copied().collect();
        let bytes = original.to_bytes();
        prop_assert_eq!(bytes.len(), bits.len().div_ceil(8));
        let decoded = BitVec::from_bytes(&bytes, bits.len())
            .expect("buffer is exactly large enough");
        prop_assert_eq!(&decoded, &original);
        for (i, bit) in bits.iter().enumerate() {
            prop_assert_eq!(decoded.get(i), Some(*bit));
        }
    }

    #[test]
    fn pyramid_wire_round_trip_preserves_containment(
        alarms in prop::collection::vec(alarm_strategy(), 0..6usize),
        height in 1u32..=4,
        probes in prop::collection::vec((0.0..=CELL.0, 0.0..=CELL.1), 25usize)
    ) {
        let cell = Rect::new(0.0, 0.0, CELL.0, CELL.1).expect("fixed cell");
        let config = PyramidConfig::three_by_three(height);
        let region = PyramidComputer::new(config).compute(cell, &alarms);

        let wire = region.to_wire_bits();
        prop_assert_eq!(wire.len(), region.bitmap_size());
        let decoded = BitmapSafeRegion::from_wire_bits(cell, config, wire.clone())
            .expect("self-produced encoding must decode");

        use sa_core::SafeRegion as _;
        for (x, y) in probes {
            let p = Point::new(x, y);
            prop_assert_eq!(
                decoded.contains(p),
                region.contains(p),
                "containment diverged at ({}, {}) with {} alarms, height {}",
                x, y, alarms.len(), height
            );
        }
        // Subcell-grid corners are the adversarial probes: containment
        // boundaries lie exactly on them.
        let sub = CELL.0 / 3f64.powi(height as i32);
        for i in 0..=(3f64.powi(height as i32) as u32) {
            let c = f64::from(i) * sub;
            for p in [Point::new(c, c), Point::new(c, CELL.1 - c)] {
                prop_assert_eq!(decoded.contains(p), region.contains(p));
            }
        }
    }

    /// The reactor's incremental reassembly is byte-split invariant:
    /// however a stream of frames is chopped across `push` calls (the
    /// kernel's prerogative on a nonblocking socket), the extracted
    /// frame bodies equal what the blocking `read_frame` path yields on
    /// the same bytes.
    #[test]
    fn frame_reader_reassembles_any_split_like_the_blocking_reader(
        bodies in prop::collection::vec(
            prop::collection::vec(0u8..=255, 0..200usize),
            1..8usize,
        ),
        cut_fractions in prop::collection::vec(0.0..=1.0f64, 0..24usize),
    ) {
        // The wire stream: every body behind its u32 length prefix.
        let mut stream = Vec::new();
        for body in &bodies {
            stream.extend_from_slice(&(body.len() as u32).to_be_bytes());
            stream.extend_from_slice(body);
        }

        // The blocking reference: read frames off a cursor to EOF.
        let mut cursor = std::io::Cursor::new(stream.clone());
        let mut reference = Vec::new();
        while let Some(body) = read_frame(&mut cursor).expect("in-memory reads cannot fail") {
            reference.push(body);
        }
        prop_assert_eq!(&reference, &bodies, "read_frame must yield the encoded bodies");

        // The incremental path: the same bytes, split at the sampled
        // boundaries (duplicates collapse; 0 and len are allowed — an
        // empty push must be harmless).
        let mut boundaries: Vec<usize> =
            cut_fractions.iter().map(|f| (f * stream.len() as f64) as usize).collect();
        boundaries.push(0);
        boundaries.push(stream.len());
        boundaries.sort_unstable();
        boundaries.dedup();

        let mut reader = FrameReader::new();
        let mut reassembled = Vec::new();
        for pair in boundaries.windows(2) {
            reader.push(&stream[pair[0]..pair[1]], pair[0] as u64);
            while let Some(body) = reader.next_frame(pair[0] as u64).expect("bodies are under the cap") {
                reassembled.push(body);
            }
        }
        prop_assert_eq!(&reassembled, &reference, "split position must not matter");
        prop_assert!(!reader.has_partial(), "a fully fed stream leaves no tail");
        prop_assert_eq!(reader.buffered(), 0);
    }
}
