//! Cross-checks of the high-level APIs (matrix façade, regions, banded
//! kernels, scheme conversion) against each other and the low-level
//! memory — every layer must tell the same story about the same data.

use polymem::region::RegionShape;
use polymem::{
    AccessScheme, BandedMatrix, ParallelAccess, PolyMatrix, PolyMem, PolyMemConfig, Region,
};
use proptest::prelude::*;

#[test]
fn matrix_and_raw_memory_agree() {
    let data: Vec<u64> = (0..256).map(|x| x * 11 + 3).collect();
    let mut matrix = PolyMatrix::from_row_major(&data, 16, 16, 2, 4, AccessScheme::RoCo).unwrap();
    let cfg = PolyMemConfig::new(16, 16, 2, 4, AccessScheme::RoCo, 1).unwrap();
    let mut raw = PolyMem::<u64>::new(cfg).unwrap();
    raw.load_row_major(&data).unwrap();
    for i in 0..16 {
        let via_matrix = matrix.row(i).unwrap();
        let mut via_raw = Vec::new();
        for j0 in (0..16).step_by(8) {
            via_raw.extend(raw.read(0, ParallelAccess::row(i, j0)).unwrap());
        }
        assert_eq!(via_matrix, via_raw, "row {i}");
    }
}

#[test]
fn region_io_and_matrix_agree() {
    let data: Vec<u64> = (0..256).collect();
    let mut matrix = PolyMatrix::from_row_major(&data, 16, 16, 2, 4, AccessScheme::RoCo).unwrap();
    let region = Region::new("r5", 5, 0, RegionShape::Row { len: 16 });
    let via_region = matrix.memory().read_region(0, &region).unwrap();
    let via_matrix = matrix.row(5).unwrap();
    assert_eq!(via_region, via_matrix);
}

#[test]
fn banded_matrix_dense_dump_matches_bands() {
    let n = 16;
    let mut banded = BandedMatrix::new(n, 2, 2, 4).unwrap();
    for k in -2i64..=2 {
        let len = n - k.unsigned_abs() as usize;
        let vals: Vec<f64> = (0..len).map(|t| (k * 100) as f64 + t as f64).collect();
        banded.set_band(k as isize, &vals).unwrap();
    }
    let dense = banded.to_dense();
    for k in -2isize..=2 {
        let band = banded.band(k).unwrap();
        for (t, &v) in band.iter().enumerate() {
            let (i, j) = if k >= 0 {
                (t, t + k as usize)
            } else {
                (t + (-k) as usize, t)
            };
            assert_eq!(dense[i * n + j], v, "band {k} entry {t}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn convert_scheme_never_corrupts(scheme_a in 0..5usize, scheme_b in 0..5usize, seed in any::<u64>()) {
        let a = AccessScheme::ALL[scheme_a];
        let b = AccessScheme::ALL[scheme_b];
        let cfg = PolyMemConfig::new(8, 16, 2, 4, a, 1).unwrap();
        let mut m = PolyMem::<u64>::new(cfg).unwrap();
        let data: Vec<u64> = (0..128).map(|k| k ^ seed).collect();
        m.load_row_major(&data).unwrap();
        let converted = m.convert_scheme(b).unwrap();
        prop_assert_eq!(converted.dump_row_major(), data);
    }
}
