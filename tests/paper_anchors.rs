//! Cross-crate verification of the paper's published numbers — every
//! anchor cheap enough for the test suite (the full 128 Kbit sweeps live
//! in the `table1` experiment binary).

use koopman_crc::crc_hd::{dmin, weights, GenPoly, HdProfile};
use koopman_crc::gf2poly::{factor, order_of_x, Poly};

fn g32(koopman: u64) -> GenPoly {
    GenPoly::from_koopman(32, koopman).unwrap()
}

#[test]
fn section2_802_3_weights_at_mtu() {
    // "the 802.3 CRC has a weight at message length=12112 bits of
    //  {W2=0; W3=0; W4=223059; ...}"
    let w = weights::weights234(&g32(0x82608EDB), 12_112).unwrap();
    assert_eq!((w.w2, w.w3, w.w4), (0, 0, 223_059));
}

#[test]
fn section1_hd_comparison_at_mtu() {
    // "the 802.3 CRC can detect up to three independent bit errors
    //  (HD=4) in an Ethernet MTU ... the theoretical maximum is five
    //  independent bit errors (HD=6)".
    let ieee = HdProfile::compute(&g32(0x82608EDB), 12_500).unwrap();
    assert_eq!(ieee.hd_at(12_112), Some(4));
    let koop = HdProfile::compute(&g32(0xBA0DC66B), 17_000).unwrap();
    assert_eq!(koop.hd_at(12_112), Some(6));
}

#[test]
fn table1_802_3_small_breakpoints() {
    let p = HdProfile::compute(&g32(0x82608EDB), 4_000).unwrap();
    assert_eq!(p.max_len_for_hd(8), Some(91));
    assert_eq!(p.max_len_for_hd(7), Some(171));
    assert_eq!(p.max_len_for_hd(6), Some(268));
    assert_eq!(p.max_len_for_hd(5), Some(2_974));
}

#[test]
fn section4_3_ba0dc66b_claims() {
    // "achieves HD=6 up to almost 16Kb and HD=4 up to 114,663 bits".
    let p = HdProfile::compute(&g32(0xBA0DC66B), 17_000).unwrap();
    assert_eq!(p.max_len_for_hd(6), Some(16_360));
    // The HD=4 limit comes from the order: 114,695 - 32.
    assert_eq!(p.order(), 114_695);
    assert_eq!(p.order() as u32 - 32, 114_663);
}

#[test]
fn table1_hd2_onsets_from_orders() {
    // HD=2 begins at order − 31 for each polynomial (Table 1 bottom row).
    for (k, onset) in [
        (0xBA0DC66Bu64, 114_664u128),
        (0xFA567D89, 65_503),
        (0x992C1A4C, 65_507),
        (0x90022004, 65_507),
        (0xD419CC15, 65_506),
        (0x80108400, 65_506),
    ] {
        let order = order_of_x(g32(k).to_poly()).unwrap();
        assert_eq!(order - 31, onset, "poly {k:#010X}");
    }
}

#[test]
fn errata_992c1a4c_hd6_to_32738() {
    // The 2014 errata: HD=6 up to 32,738 bits (not the original 32,737),
    // so d_min(4) = 32738 + 32 = 32770.
    assert_eq!(
        dmin::dmin(&g32(0x992C1A4C), 4, 33_000).unwrap(),
        Some(32_770)
    );
}

#[test]
fn section3_castagnoli_factorizations() {
    // 0xFA567D89 = (0x1 ⊗ 0x1 ⊗ 0x4008 ⊗ 0x642F): the deg-15 factors in
    // Koopman notation are 0x4008 → x^15+x^4+1 and 0x642F.
    let full = g32(0xFA567D89).to_poly();
    let fac = factor(full);
    let degs: Vec<u32> = fac.signature().degrees().to_vec();
    assert_eq!(degs, vec![1, 1, 15, 15]);
    let p15a = Poly::from_exponents(&[15, 4, 0]);
    assert!(fac.factors().iter().any(|&(p, _)| p == p15a));
    // And the full form is the corrected 1F4ACFB13 from the erratum note.
    assert_eq!(full.mask(), 0x1_F4AC_FB13);
}

#[test]
fn iscsi_poly_is_crc32c_and_keeps_hd4_past_horizon() {
    let p = g32(0x8F6E37A0);
    assert_eq!(p.normal(), 0x1EDC_6F41, "0x8F6E37A0 is CRC-32C");
    // {1,31} with primitive deg-31 factor: order 2^31 − 1, so its HD=4
    // span runs far past the 131072-bit horizon of Figure 1.
    assert_eq!(order_of_x(p.to_poly()).unwrap(), 2_147_483_647);
}

#[test]
fn section4_2_low_tap_polynomials() {
    // 0x90022004: HD=6 to almost 32K with minimal taps; 0x80108400: HD=5
    // to almost 64K with minimal taps. Verify the small-length side here
    // (the 64K side is in the table1 binary).
    let p = HdProfile::compute(&g32(0x90022004), 4_000).unwrap();
    assert_eq!(p.hd_at(4_000), Some(6));
    let p = HdProfile::compute(&g32(0x80108400), 4_000).unwrap();
    assert_eq!(p.hd_at(4_000), Some(5));
}

#[test]
fn search_space_count() {
    // "The entire set of 1,073,774,592 distinct polynomials".
    assert_eq!(
        koopman_crc::gf2poly::class::distinct_search_space(32),
        1_073_774_592
    );
}
