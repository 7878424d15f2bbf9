//! Pins what the join-tree evaluator computes on 242 seeded cases, so a
//! refactor of it cannot silently change a witness, a count or the order
//! in which solutions are enumerated.
//!
//! A case is a CSP (random binary CSPs, n-queens, SAT as CSP, graph
//! colourings) and a seeded random elimination ordering. Its digest
//! covers, for the tree decomposition of that ordering, the witness of
//! `solve_with_td`, `count_solutions_td`, every assignment
//! `for_each_solution_td` visits in visiting order, the sizes of the node
//! relations, `estimate_node_tuples`, and the witness `solve_with_ghd`
//! finds on the padded CSP through `ghd_via_elimination` with the same
//! ordering. The digests were recorded once and are compared exactly.
//! Counting and enumerating the same cases through a complete GHD must
//! give the same numbers and solution sets as through the TD.

use htd_core::bucket::{ghd_via_elimination, td_of_hypergraph};
use htd_core::ordering::EliminationOrdering;
use htd_core::CoverStrategy;
use htd_csp::{
    builders, count_solutions_td, estimate_node_tuples, for_each_solution_td, node_relations,
    solve_with_ghd, solve_with_td, Csp, NodeRelations, Value,
};
use htd_hypergraph::gen;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// FNV-1a over 64-bit words.
struct Digest(u64);

impl Digest {
    fn word(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn values(&mut self, xs: &[Value]) {
        self.word(xs.len() as u64);
        for &x in xs {
            self.word(u64::from(x));
        }
    }

    fn witness(&mut self, w: &Option<Vec<Value>>) {
        match w {
            Some(a) => self.values(a),
            None => self.word(u64::MAX),
        }
    }
}

/// A random CNF over `n` variables whose clauses never repeat a variable.
fn random_cnf(n: u32, clauses: u32, seed: u64) -> Csp {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut vars: Vec<i32> = (1..=n as i32).collect();
    let cnf: Vec<Vec<i32>> = (0..clauses)
        .map(|_| {
            let k = rng.gen_range(2..=3);
            vars.shuffle(&mut rng);
            vars[..k]
                .iter()
                .map(|&v| if rng.gen_bool(0.5) { v } else { -v })
                .collect()
        })
        .collect();
    builders::sat_to_csp(n, &cnf)
}

/// The CSPs of the pinned cases; each is paired with two orderings.
fn csps() -> Vec<(String, Csp)> {
    let mut out: Vec<(String, Csp)> = Vec::new();
    for seed in 0..50u64 {
        let n = 6 + (seed % 4) as u32;
        let p1 = [0.3, 0.5][(seed % 2) as usize];
        out.push((
            format!("random_binary_csp({n}, 3, {p1}, 0.35, {seed})"),
            builders::random_binary_csp(n, 3, p1, 0.35, seed),
        ));
    }
    for n in 4..=6 {
        out.push((format!("n_queens({n})"), builders::n_queens(n)));
    }
    for seed in 0..36u64 {
        let n = 6 + (seed % 4) as u32;
        let m = 4 + (seed % 9) as u32;
        out.push((
            format!("random_cnf({n}, {m}, {seed})"),
            random_cnf(n, m, seed),
        ));
    }
    out.push((
        "thesis_example_2_sat".into(),
        builders::thesis_example_2_sat(),
    ));
    out.push(("thesis_example_5".into(), builders::thesis_example_5()));
    out.push(("australia".into(), builders::australia_map_coloring()));
    for n in 3..=8 {
        let g = gen::cycle_graph(n);
        out.push((format!("3-colouring C{n}"), builders::graph_coloring(&g, 3)));
    }
    for cols in 3..=5 {
        let g = gen::grid_graph(2, cols);
        out.push((
            format!("3-colouring 2x{cols} grid"),
            builders::graph_coloring(&g, 3),
        ));
    }
    for k in 3..=4 {
        let g = gen::complete_graph(4);
        out.push((format!("{k}-colouring K4"), builders::graph_coloring(&g, k)));
    }
    for seed in 0..12u64 {
        let g = gen::random_gnp(8, 0.35, seed);
        out.push((
            format!("3-colouring gnp(8, 0.35, {seed})"),
            builders::graph_coloring(&g, 3),
        ));
    }
    for seed in 0..6u64 {
        let g = gen::random_partial_ktree(9, 2, 0.7, seed);
        out.push((
            format!("3-colouring partial 2-tree {seed}"),
            builders::graph_coloring(&g, 3),
        ));
    }
    out
}

/// Every pinned case: a CSP and a seeded random elimination ordering.
fn cases() -> Vec<(String, Csp, EliminationOrdering)> {
    let mut out = Vec::new();
    for (i, (label, csp)) in csps().into_iter().enumerate() {
        for round in 0..2u64 {
            let mut rng = StdRng::seed_from_u64(1000 * i as u64 + round);
            let order = EliminationOrdering::random(csp.num_vars(), &mut rng);
            out.push((format!("{label}, ordering {round}"), csp.clone(), order));
        }
    }
    out
}

fn digest(csp: &Csp, order: &EliminationOrdering) -> u64 {
    let mut d = Digest(0xcbf2_9ce4_8422_2325);
    let td = td_of_hypergraph(&csp.hypergraph(), order);
    d.witness(&solve_with_td(csp, &td));
    d.word(count_solutions_td(csp, &td));
    let visited = for_each_solution_td(csp, &td, |a| {
        d.values(a);
        true
    });
    d.word(visited);
    for r in node_relations(csp, &td) {
        d.word(r.len() as u64);
    }
    let est = estimate_node_tuples(csp, &td);
    d.word(est as u64);
    d.word((est >> 64) as u64);
    let padded = csp.pad_unconstrained();
    let ghd = ghd_via_elimination(&padded.hypergraph(), order, CoverStrategy::Exact)
        .expect("a padded CSP's hypergraph covers every vertex");
    d.witness(&solve_with_ghd(&padded, &ghd));
    d.0
}

#[test]
fn evaluator_outputs_match_the_pinned_digests() {
    let cases = cases();
    assert_eq!(cases.len(), PINNED.len(), "case list and pin table differ");
    let changed: Vec<String> = cases
        .iter()
        .zip(PINNED)
        .filter_map(|((label, csp, order), want)| {
            let got = digest(csp, order);
            (got != want).then(|| format!("{label}: {got:#018x} (pinned {want:#018x})"))
        })
        .collect();
    assert!(
        changed.is_empty(),
        "changed digests:\n{}",
        changed.join("\n")
    );
}

#[test]
fn ghd_counts_and_enumerations_agree_with_the_td() {
    for (label, csp, order) in cases() {
        let td = td_of_hypergraph(&csp.hypergraph(), &order);
        let mut by_td = Vec::new();
        for_each_solution_td(&csp, &td, |a| {
            by_td.push(a.to_vec());
            true
        });
        let padded = csp.pad_unconstrained();
        let h = padded.hypergraph();
        let ghd = ghd_via_elimination(&h, &order, CoverStrategy::Exact)
            .expect("a padded CSP's hypergraph covers every vertex")
            .complete(&h);
        let mut via_ghd = NodeRelations::of_ghd(&padded, &ghd);
        assert_eq!(via_ghd.count(), Some(by_td.len() as u64), "{label}");
        let mut by_ghd = Vec::new();
        if via_ghd.reduce() {
            via_ghd.for_each(|a| {
                by_ghd.push(a.to_vec());
                true
            });
        }
        by_td.sort();
        by_ghd.sort();
        assert_eq!(by_ghd, by_td, "{label}");
    }
}

/// One digest per case of [`cases`], in order.
const PINNED: [u64; 242] = [
    0xdc74a4724961ad4c,
    0x5bb6f4579e390672,
    0xded42a5a27c4f26e,
    0xe56da79f53de582b,
    0xcac9202c412af4b8,
    0xc4ca209ca82542f8,
    0x718a3c494d917ee2,
    0x7c8c3ae69d6f6186,
    0x4fd377ce2c601451,
    0x2359928adec98cd1,
    0xa5cfa584fe1d4c91,
    0xdf6b4e112f71608d,
    0x525b4682c5d408d5,
    0xce6893782930e41a,
    0x0673315dcedceef8,
    0x80e5f26dc3daae1c,
    0x06f27f64bbd8b752,
    0x8b4f8c258d231ef2,
    0xe31ae398df8bb434,
    0xc9f680062c0d0414,
    0x102f3eabf262fc22,
    0xed624b6aed858229,
    0x9ad5895845ced3e7,
    0x5cf38a64ead64e78,
    0xb1b1b8a47e175c24,
    0x4cd0db6f75358386,
    0x27b84e7155550604,
    0x61754773078e58c9,
    0xcbe65937576d27be,
    0xe0b669ed874df6f5,
    0x398aadd3e5b3b6c1,
    0xcf9ca3c603c05840,
    0x907e8347f51227a0,
    0x48d4f256cd101fa5,
    0xde290c1e6fda5e01,
    0xaed033e51f3ab8c0,
    0x8b54689674d44904,
    0x07dfe4d7e3741774,
    0xf7efe186b5e1f64c,
    0x0f4fe09d46694365,
    0x00812351a1185e7a,
    0x015fc38120b5fadd,
    0x1859d4ebf9ff5da0,
    0x9fc67cd26e908d6b,
    0xdb1579890943a900,
    0x225885b174b0c6b5,
    0x4c9ab2b4dae6e998,
    0x34da3bfc834dd50b,
    0x1137bee2824da14a,
    0x375655941e1c15a6,
    0xebb3a2086c9d8b98,
    0x0d6572970da4eead,
    0x3c51d89e63bbb7b8,
    0x415de53a2c97614a,
    0x8f7bc990129d013b,
    0x813dfe3e58dff71a,
    0x982934656900639a,
    0x4cf3fb19248d6c4b,
    0x6af8a6fa3ead2bb3,
    0xde6dc4d197bed803,
    0xf2f554a69d9187a1,
    0xfdbb136e874ad0e6,
    0xb609e6fc3d8610eb,
    0xfc929e71bd52d0d5,
    0xe24f79d11dbad73d,
    0xb17ee927b2c86dce,
    0x5957524cea124c94,
    0x6848d31386fe1e52,
    0x2035d09ce093bea5,
    0x1010ceb1b9f593a3,
    0x9f5d98a98178516c,
    0x0f4908818fc19d2f,
    0x37479af6ff2cafac,
    0x410e8f8c84603edd,
    0xe5490ec08e673454,
    0x3e81a988b04644ff,
    0xb0e1813e41d00983,
    0xa8e36b6ffd8e9fa3,
    0x457ca34219cb0c76,
    0x5ff54276ded83fc5,
    0xefb59f80d98b11d8,
    0x9c8244cd4c3ff743,
    0x12cc9ff98bda5e1a,
    0x5c8a320065b17f53,
    0xfb82b5b21b4b6b7a,
    0xf9b6a641608623fb,
    0x9444f094d8be9a73,
    0xfaba7e89dc2ed1cd,
    0xfd0b7a40a0c56066,
    0xb3c8921f568daa31,
    0x2678c69128b58dc7,
    0x6ac65e5e6e1a1901,
    0x2aa7d4d51429d16d,
    0xd67f8362931ee478,
    0x242bc0b233f09404,
    0x582b7e29f317a471,
    0xfd43dd7ea99c1af4,
    0x57cc5bce8f37b629,
    0x7835aa4efadd8683,
    0x7835aa4efadd8683,
    0xf771aa634e27c811,
    0xf771aa634e27c811,
    0x1e138a268902e584,
    0xb5a5038488442584,
    0x2c2d1d8a69ce092c,
    0x2c2d1d8a69ce092c,
    0xdd1dd04868f30339,
    0x4545247d3873c611,
    0xf97a8b9a5b58ef22,
    0xfc9523f391e3a6a3,
    0x8445d07f0f6810e1,
    0x45c7dab2b46f464e,
    0xe608bbacc7f86ec8,
    0xe32e2afb202af5fd,
    0x2791d1169b625c6d,
    0x6e8a10d3f56d7793,
    0x42ae7907f4b84729,
    0x3d199f652e6e0999,
    0x84bd2ae5606b4e83,
    0xd4e6e4770a6da3de,
    0x25b73ccffc611fd5,
    0x311bdaf471b89048,
    0xb6c6d8446ea1009c,
    0xea5c58b677c2289d,
    0x0e45741d84886363,
    0xb19ca413f9922048,
    0x7a1c7ca0be13784b,
    0xcfa374f42571154b,
    0xceaff819a4b0266d,
    0x9802bc88edbd620e,
    0x9ca347cb6e84087c,
    0x5efbd77f3fa5169c,
    0x4e7c39763f7c2fb3,
    0x82be503a3a7e1865,
    0x05173a8c7c848a8d,
    0x0871fa4aa553c475,
    0x1089f9dba3ea2dd2,
    0x930e97fad4675bd6,
    0x980a46e28cfe0c7a,
    0x153c9bfe55c9ca04,
    0xd9b2d49adfbbbdf9,
    0xa70ae660ce2deab9,
    0xc48ff653f72716fe,
    0xb6e09b9e71603014,
    0x0bcb39fe02601d51,
    0x32d60b5ba2cf8d77,
    0x952708c3fd860c37,
    0x1c61cc9ed9ff09f7,
    0x691020b7b24fbea2,
    0x104052c0d3b356c8,
    0xef241ae8905f420e,
    0x424563bef8bd663c,
    0x5d4f61a0d67b1a23,
    0xd213ddc667f4ff97,
    0x53a1d07056eb946d,
    0x47981c268d2d4597,
    0x0d008c99815b1944,
    0xc7abbcae93c67b59,
    0x77013de27ae73803,
    0x73b19334fef17a57,
    0xa53e6a586ae9522e,
    0x0ac7e50ff51d9886,
    0x541b014991f3a26d,
    0x49f7217bf8df443f,
    0xa670312a7b02cec3,
    0xc691c7cefc92da13,
    0x66097ca967e835dd,
    0xf19b8d200378cce1,
    0x1d4292285d6ef543,
    0x14fcbccc4ca77918,
    0xca7e6e5c592ab3b9,
    0xf971cc0d2a6fa167,
    0x021f0b096c7e4fe5,
    0x80d5b50b4eaf21f6,
    0xacd12c69c74a86b3,
    0x480fd34ce5ce37fc,
    0xcbefc9a2c16229aa,
    0x6ba9efa91a154fc9,
    0x8b962bae055fa656,
    0x447569ffedc01965,
    0x789ead1702d656e0,
    0xc0f8de349311d340,
    0x93624f111ba16b26,
    0x9179f85d071190c4,
    0x61d91a82e0f72c8d,
    0x61d91a82e0f72c8d,
    0x8a40f4415d58211b,
    0x2f5c09e8877d84db,
    0x74d152a0053a80bb,
    0xe4fa49de760575bb,
    0x2283ba5edaeaf08b,
    0x40de5ce22a9066e9,
    0x2cc524982e6b4117,
    0x806a049782d7d88f,
    0x4adfb40e23997673,
    0x5adf1eb4a60f7eb3,
    0xcc2f23d1b8472882,
    0x0e3d15558a2ae694,
    0xcfbbe094db257f64,
    0x9c48197435f6e5bf,
    0xf1a1b813099f8fac,
    0xa9aa704db50629a6,
    0x0c0371b277b399f5,
    0x0c0371b277b399f5,
    0x2074f9454e0d1a98,
    0x03214101a42bd918,
    0x0f9cc9af1143e186,
    0x0c06f1691c7548e1,
    0xb887e20784eefb5d,
    0xef7eb12e202e6e4d,
    0xed9722eaca35daf0,
    0xc522e8a5fba4aacb,
    0x893b919fa65dd13c,
    0xe569cbf8b00cb732,
    0xcf42f8c0c5a77cad,
    0xdb22de4e405df9dd,
    0x4f78c5f8836daf4d,
    0x18d97ba9dd8698b3,
    0x408188b06742a405,
    0x1fcc3bde74480bc1,
    0xe02aa453e84a405f,
    0x7fc0b6ed947bf8e9,
    0x0f4fe1161c801ee2,
    0x81d5f74a91d999b8,
    0x9e7a47d5b44e1e9e,
    0xc9c81cb6a687f619,
    0x717fbb8e496dd897,
    0xab4fdd3ab270cab5,
    0xbb385e268b531f0a,
    0xfbd47812c4955619,
    0x8c2f39085759abd3,
    0xcc9b5d9c06f0e1bd,
    0x1a6c914b4ecc7ae4,
    0x0501204e72d8fc35,
    0x6b258d7282eaef76,
    0xa2b07f297707d555,
    0x06665f425f8b7e4e,
    0x7a377e9475d996ed,
    0x8f24e195092841e2,
    0x2012a72016dc099a,
    0xfd97daf420d411ec,
    0xe04dacc29b6bc5fb,
];
