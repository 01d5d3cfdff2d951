//! Golden checksums pinning the generators bit-for-bit: the reproducibility
//! contract of the KaGen substitute (DESIGN.md: "generated graphs are
//! bit-stable across toolchain upgrades"). If any of these change, every
//! recorded experiment changes with them — bump deliberately, never
//! accidentally.

use tricount_gen::{Dataset, Family};
use tricount_graph::Csr;

fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn checksum(g: &Csr) -> u64 {
    let mut acc = g.num_vertices().wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ g.num_edges();
    for (u, v) in g.edges() {
        acc ^= mix(u.wrapping_mul(1_000_003).wrapping_add(v));
    }
    acc
}

#[test]
fn family_checksums_are_stable() {
    let goldens = [
        (Family::Rgg2d, 0x583a0d80049ba70bu64),
        (Family::Rhg, 0x51967adec80361c7),
        (Family::Gnm, 0x64e8bb4e4f6b2e9c),
        (Family::Rmat, 0x104ab9e7107c3c30),
    ];
    for (fam, want) in goldens {
        let got = checksum(&fam.generate(512, 123));
        assert_eq!(got, want, "{fam:?} changed: 0x{got:016x}");
    }
}

#[test]
fn dataset_checksums_are_stable() {
    let goldens = [
        (Dataset::LiveJournal, 0x3d9456449d42755eu64),
        (Dataset::Orkut, 0x0c449f4e3f334c42),
        (Dataset::Twitter, 0xc214fe1496ced059),
        (Dataset::Friendster, 0xbfdcbb0729646b29),
        (Dataset::Uk2007, 0xc041c83e35b9ae5b),
        (Dataset::Webbase2001, 0x50c6b53e858dfcfa),
        (Dataset::RoadEurope, 0xc7a5b95ca3b5a6c9),
        (Dataset::RoadUsa, 0xea89099a1893bf36),
    ];
    for (ds, want) in goldens {
        let got = checksum(&ds.generate(512, 123));
        assert_eq!(got, want, "{ds:?} changed: 0x{got:016x}");
    }
}

/// `m` and one hash over the CSR's offsets and targets: pins the built
/// adjacency arrays themselves, not just the edge set.
fn fingerprint(g: &Csr) -> (u64, u64) {
    let mut acc = 0u64;
    let mut offset = 0u64;
    for v in g.vertices() {
        let list = g.neighbors(v);
        offset += list.len() as u64;
        acc = mix(acc ^ offset);
        for &u in list {
            acc = mix(acc ^ u);
        }
    }
    (g.num_edges(), acc)
}

/// Every generator family's CSR at two seeds. Handing the builder raw,
/// repeated or reversed pairs instead of a canonical list must not change
/// any of these.
#[test]
fn csr_fingerprints_are_stable() {
    let build = |fam: &str, seed: u64| match fam {
        "rgg2d" => tricount_gen::rgg2d_default(2048, seed),
        "rhg" => tricount_gen::rhg_default(2048, seed),
        "gnm" => tricount_gen::gnm(2048, 16 * 2048, seed),
        "rmat" => tricount_gen::rmat_default(11, seed),
        "road" => tricount_gen::road_default(2048, seed),
        _ => unreachable!(),
    };
    let goldens = [
        ("rgg2d", 1, (30646, 0xf27d4dd6a6eef095)),
        ("rgg2d", 2, (30437, 0x9cf3b0d8cddde2b8)),
        ("rhg", 1, (29793, 0x1237e4fdddac87f0)),
        ("rhg", 2, (32493, 0x3c19e6ef3263551a)),
        ("gnm", 1, (32768, 0xed73a62b2b85c37b)),
        ("gnm", 2, (32768, 0x90f6edc522561f0b)),
        ("rmat", 1, (22725, 0x16db7bb429e91c91)),
        ("rmat", 2, (22603, 0x466186fdc04a0558)),
        ("road", 1, (3919, 0x69dc8084f2e4f9d8)),
        ("road", 2, (3919, 0x54daa42e3ae7ee6c)),
    ];
    for (fam, seed, want) in goldens {
        let got = fingerprint(&build(fam, seed));
        assert_eq!(got, want, "{fam} at seed {seed} changed: {got:?}");
    }
}
