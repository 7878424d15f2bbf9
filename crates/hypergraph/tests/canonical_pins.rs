//! Pins the canonical form of 189 hypergraphs, so a change to the
//! individualization–refinement search cannot silently change a cache
//! key. The service cache, the certificate store (which re-derives every
//! record's key on load) and cluster ring placement all read these bytes.
//!
//! The corpus is the graph suite (as binary-edge hypergraphs), the
//! hypergraph suite, perfbench's six `answer` query shapes, cycles,
//! circulants C_n(1, s), hypercubes, the Petersen graph, small
//! `grid2d`/`adder`/`bridge` instances and seeded random instances. Every
//! search must complete, and each instance pins its fingerprint, except
//! `bridge_25`: the unpruned search ran out of budget on it, so it is
//! pinned only as complete. Every instance is also rebuilt under three
//! seeded relabelings (vertex ids, edge order, order within an edge),
//! which must give the same bytes.

use htd_hypergraph::canonical::canonical_form;
use htd_hypergraph::{gen, Graph, Hypergraph};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// What an instance's canonical form is pinned to.
#[derive(Clone, Copy, Debug)]
enum Pin {
    /// The search completes with this fingerprint.
    Key(u64),
    /// The search completes. Its fingerprint is not pinned: the build the
    /// pins were recorded with ran out of budget here, so it had no
    /// canonical key to record.
    Complete,
}

use Pin::{Complete, Key};

fn graph(name: String, g: &Graph) -> (String, Hypergraph) {
    (name, Hypergraph::from_graph(g))
}

/// C_n(1, s): vertex `i` is adjacent to `i ± 1` and `i ± s` (mod `n`).
fn circulant(n: u32, s: u32) -> Graph {
    let mut g = Graph::new(n);
    for i in 0..n {
        g.add_edge(i, (i + 1) % n);
        g.add_edge(i, (i + s) % n);
    }
    g
}

fn petersen() -> Graph {
    let mut g = Graph::new(10);
    for i in 0..5 {
        g.add_edge(i, (i + 1) % 5);
        g.add_edge(i, i + 5);
        g.add_edge(5 + i, 5 + (i + 2) % 5);
    }
    g
}

fn ring(n: u32, shifts: &[u32]) -> Vec<Vec<u32>> {
    shifts
        .iter()
        .flat_map(|&s| (0..n).map(move |i| vec![i, (i + s) % n]))
        .collect()
}

/// The query hypergraphs of perfbench's `answer` workload.
fn answer_shapes() -> Vec<(&'static str, Hypergraph)> {
    vec![
        (
            "path6",
            Hypergraph::new(6, (0..5).map(|i| vec![i, i + 1]).collect()),
        ),
        (
            "star6",
            Hypergraph::new(6, (1..6).map(|i| vec![0, i]).collect()),
        ),
        ("cycle7", Hypergraph::new(7, ring(7, &[1]))),
        ("circulant10", Hypergraph::new(10, ring(10, &[1, 3]))),
        (
            "wide_ring3",
            Hypergraph::new(
                9,
                vec![vec![0, 1, 2, 3], vec![3, 4, 5, 6], vec![6, 7, 8, 0]],
            ),
        ),
        (
            "wide_hub",
            Hypergraph::new(
                8,
                vec![
                    vec![0, 1, 2],
                    vec![2, 3, 4],
                    vec![4, 5, 6],
                    vec![6, 7, 0],
                    vec![0, 2, 4, 6],
                ],
            ),
        ),
    ]
}

/// Every pinned instance, in the order of [`PINNED`].
fn corpus() -> Vec<(String, Hypergraph)> {
    let mut out: Vec<(String, Hypergraph)> = Vec::new();
    for (name, g) in gen::graph_suite() {
        out.push(graph(name.into(), &g));
    }
    for (name, h) in gen::hypergraph_suite() {
        if h.num_vertices() <= 400 {
            out.push((name.into(), h));
        }
    }
    for (name, h) in answer_shapes() {
        out.push((format!("answer shape {name}"), h));
    }
    for n in 3..=15 {
        out.push(graph(format!("C{n}"), &gen::cycle_graph(n)));
    }
    for n in 6..=15 {
        for s in 2..=n / 2 {
            out.push(graph(format!("C{n}(1,{s})"), &circulant(n, s)));
        }
    }
    for d in 2..=5 {
        out.push(graph(format!("hypercube({d})"), &gen::hypercube(d)));
    }
    out.push(graph("petersen".into(), &petersen()));
    for k in 1..=5 {
        out.push((format!("grid2d({k})"), gen::grid2d(k)));
        out.push((format!("adder({k})"), gen::adder(k)));
        out.push((format!("bridge({k})"), gen::bridge(k)));
    }
    for seed in 0..40u64 {
        let (n, m, k) = (
            8 + seed as u32 % 13,
            6 + seed as u32 % 11,
            2 + seed as u32 % 3,
        );
        out.push((
            format!("random_uniform({n}, {m}, {k}, {seed})"),
            gen::random_uniform(n, m, k, seed),
        ));
    }
    for seed in 0..20u64 {
        let (n, p) = (8 + seed as u32 % 17, [0.15, 0.3, 0.5][seed as usize % 3]);
        out.push(graph(
            format!("random_gnp({n}, {p}, {seed})"),
            &gen::random_gnp(n, p, seed),
        ));
    }
    for seed in 0..20u64 {
        let (n, k) = (10 + seed as u32 % 15, 1 + seed as u32 % 4);
        out.push(graph(
            format!("random_ktree({n}, {k}, {seed})"),
            &gen::random_ktree(n, k, seed),
        ));
    }
    out
}

/// Rebuilds `h` under a seeded vertex relabeling, edge order and order
/// within each edge.
fn relabel(h: &Hypergraph, seed: u64) -> Hypergraph {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = h.num_vertices();
    let mut perm: Vec<u32> = (0..n).collect();
    for i in (1..n as usize).rev() {
        perm.swap(i, rng.gen_range(0..=i));
    }
    let mut lists: Vec<Vec<u32>> = h
        .edges()
        .iter()
        .map(|e| {
            let mut l: Vec<u32> = e.iter().map(|v| perm[v as usize]).collect();
            for i in (1..l.len()).rev() {
                l.swap(i, rng.gen_range(0..=i));
            }
            l
        })
        .collect();
    for i in (1..lists.len()).rev() {
        lists.swap(i, rng.gen_range(0..=i));
    }
    Hypergraph::new(n, lists)
}

#[test]
fn canonical_keys_match_the_pins() {
    let corpus = corpus();
    assert_eq!(corpus.len(), PINNED.len(), "corpus and pin table differ");
    let changed: Vec<String> = corpus
        .iter()
        .zip(PINNED)
        .filter_map(|((label, h), (pinned_label, pin))| {
            assert_eq!(label, pinned_label, "corpus and pin table differ");
            let f = canonical_form(h);
            let kept = f.complete
                && match pin {
                    Key(fingerprint) => f.fingerprint == fingerprint,
                    Complete => true,
                };
            (!kept).then(|| {
                format!(
                    "{label}: complete {}, {:#018x} (pinned {pin:x?})",
                    f.complete, f.fingerprint
                )
            })
        })
        .collect();
    assert!(changed.is_empty(), "changed keys:\n{}", changed.join("\n"));
}

#[test]
fn relabelings_give_the_same_key() {
    let mut differing = Vec::new();
    for (i, (label, h)) in corpus().iter().enumerate() {
        let base = canonical_form(h);
        for round in 0..3u64 {
            let got = canonical_form(&relabel(h, 1000 * i as u64 + round));
            if !(base.complete && got.complete && got.bytes == base.bytes) {
                differing.push(format!(
                    "{label}, relabeling {round}: {} vs {}",
                    got.hex(),
                    base.hex()
                ));
            }
        }
    }
    assert!(
        differing.is_empty(),
        "relabelings changed the key:\n{}",
        differing.join("\n")
    );
}

/// One pin per instance of [`corpus`], in order.
const PINNED: [(&str, Pin); 189] = [
    ("queen5_5", Key(0x459616d8fd88099c)),
    ("queen6_6", Key(0x9da0c095c5006928)),
    ("queen7_7", Key(0x19ba479be58e0963)),
    ("myciel3", Key(0x7dae5bdf9e9757e0)),
    ("myciel4", Key(0x36586685fe6945b8)),
    ("myciel5", Key(0x2e921cc8831fc378)),
    ("grid4", Key(0xb9842943ee4ab96d)),
    ("grid5", Key(0x71ee043fc6f09110)),
    ("grid6", Key(0x73fddf657a357b4d)),
    ("games120", Key(0xaf1b12edda04bea5)),
    ("anna", Key(0xf57fd34570aa7c68)),
    ("david", Key(0xaca735691d418bd9)),
    ("huck", Key(0xafbc758278b0bd24)),
    ("jean", Key(0x252b51753a403645)),
    ("DSJC125.1", Key(0xf47ca4c49b4bb40c)),
    ("miles250", Key(0xf2db3bf6d4a5cce3)),
    ("adder_15", Key(0x5546250e2fafd13d)),
    ("adder_25", Key(0x92a7494c218e5433)),
    ("bridge_10", Key(0xc6fc0224d7d62569)),
    ("bridge_25", Complete),
    ("grid2d_8", Key(0x74a9196c6112f215)),
    ("grid2d_10", Key(0x9366c5857dc3df85)),
    ("grid3d_4", Key(0x7ed6558d992b49b5)),
    ("clique_10", Key(0x082b63622c6f0fa1)),
    ("clique_20", Key(0x29410c5ae8d1b38f)),
    ("b06", Key(0x629ad5f7ad3f56ec)),
    ("b08", Key(0x19cc54df4989c055)),
    ("b09", Key(0x64a75fc8cf55e055)),
    ("b10", Key(0x2af5c760a5bf70a5)),
    ("c499", Key(0x53ef5a9051500342)),
    ("answer shape path6", Key(0x014334e83a5a3965)),
    ("answer shape star6", Key(0xf3f27bfb1fc04105)),
    ("answer shape cycle7", Key(0xe31beb8233793fd7)),
    ("answer shape circulant10", Key(0x4eab79fb118f021b)),
    ("answer shape wide_ring3", Key(0xeb5584e28f44259a)),
    ("answer shape wide_hub", Key(0xa1ce4f2e36972b7c)),
    ("C3", Key(0x4152b18433ef6077)),
    ("C4", Key(0x2e6c58eb7a68e885)),
    ("C5", Key(0xaac57ef9cd4ff4b7)),
    ("C6", Key(0xffd9f8fffa2a8815)),
    ("C7", Key(0xe31beb8233793fd7)),
    ("C8", Key(0x82e1df0be54c5a85)),
    ("C9", Key(0x297bcf2b1d0c7947)),
    ("C10", Key(0xbf5907e42a2d8ab5)),
    ("C11", Key(0x8a421510042faa17)),
    ("C12", Key(0xb205716b32987c15)),
    ("C13", Key(0x220f11e5363fce17)),
    ("C14", Key(0xf96758b8672b7cc5)),
    ("C15", Key(0x3368d2e96fc825e7)),
    ("C6(1,2)", Key(0x359305fdba57265f)),
    ("C6(1,3)", Key(0x3bc06e99a5e29d79)),
    ("C7(1,2)", Key(0x772706c844c7717c)),
    ("C7(1,3)", Key(0x772706c844c7717c)),
    ("C8(1,2)", Key(0x152344fe7dd6a48d)),
    ("C8(1,3)", Key(0x93ee65364048603d)),
    ("C8(1,4)", Key(0xa4993e580b05f301)),
    ("C9(1,2)", Key(0x21fb104f895287de)),
    ("C9(1,3)", Key(0xf41423c03664cc7e)),
    ("C9(1,4)", Key(0x21fb104f895287de)),
    ("C10(1,2)", Key(0x6cf11f8c8ba8a37b)),
    ("C10(1,3)", Key(0x4eab79fb118f021b)),
    ("C10(1,4)", Key(0xb940ce1e14491c4b)),
    ("C10(1,5)", Key(0x7ae7554bb445cc73)),
    ("C11(1,2)", Key(0xdc2ae1c3225849f8)),
    ("C11(1,3)", Key(0x987a95035bcfcf78)),
    ("C11(1,4)", Key(0x987a95035bcfcf78)),
    ("C11(1,5)", Key(0xdc2ae1c3225849f8)),
    ("C12(1,2)", Key(0x09a6f1ff025e5a31)),
    ("C12(1,3)", Key(0x8c2b105d8c87a751)),
    ("C12(1,4)", Key(0x081cd470cad22a31)),
    ("C12(1,5)", Key(0xbedae99e7be89ad1)),
    ("C12(1,6)", Key(0x58a5d3b5a578447b)),
    ("C13(1,2)", Key(0xb379d4a8a35d3fd2)),
    ("C13(1,3)", Key(0xdfe78de0b31ad832)),
    ("C13(1,4)", Key(0xdfe78de0b31ad832)),
    ("C13(1,5)", Key(0xc058faf9c4f3f682)),
    ("C13(1,6)", Key(0xb379d4a8a35d3fd2)),
    ("C14(1,2)", Key(0xc6ce5f49d52d6517)),
    ("C14(1,3)", Key(0x5b9ac8f06936a8a7)),
    ("C14(1,4)", Key(0x73e36c3dd1ca4417)),
    ("C14(1,5)", Key(0x5b9ac8f06936a8a7)),
    ("C14(1,6)", Key(0xe15da39a28259ec7)),
    ("C14(1,7)", Key(0x11dcd914323d29ad)),
    ("C15(1,2)", Key(0xf0241c6b475a2414)),
    ("C15(1,3)", Key(0xc68b0b744ef81dc4)),
    ("C15(1,4)", Key(0x7358e5db1c9cf074)),
    ("C15(1,5)", Key(0x6df8c1c83626d1e4)),
    ("C15(1,6)", Key(0xda32de3e043f68d4)),
    ("C15(1,7)", Key(0xf0241c6b475a2414)),
    ("hypercube(2)", Key(0x2e6c58eb7a68e885)),
    ("hypercube(3)", Key(0x051ca6df925e1e01)),
    ("hypercube(4)", Key(0x6951139855c820b5)),
    ("hypercube(5)", Key(0x8d5f1e86a7d68385)),
    ("petersen", Key(0x0817e2dd9a635993)),
    ("grid2d(1)", Key(0x89cd31291d2aefa4)),
    ("adder(1)", Key(0x454d61f2b03dd52b)),
    ("bridge(1)", Key(0xbd42a55f6c533fc5)),
    ("grid2d(2)", Key(0x1d764e78416b8475)),
    ("adder(2)", Key(0x1d586587d086680a)),
    ("bridge(2)", Key(0x139991c4d6f31471)),
    ("grid2d(3)", Key(0x71512d49b6383294)),
    ("adder(3)", Key(0xa25f2014851e84a9)),
    ("bridge(3)", Key(0x45f5cb1a6fbc6f34)),
    ("grid2d(4)", Key(0xd4df1eec82282e55)),
    ("adder(4)", Key(0x0ac0bb0bb0dabd18)),
    ("bridge(4)", Key(0x4de1f8144086c71a)),
    ("grid2d(5)", Key(0x0f36cf66f5564708)),
    ("adder(5)", Key(0xb5713c71936573c7)),
    ("bridge(5)", Key(0xff0f2218d437f675)),
    ("random_uniform(8, 6, 2, 0)", Key(0x9eeea3f211bc228b)),
    ("random_uniform(9, 7, 3, 1)", Key(0x7c2d81d24f0e0597)),
    ("random_uniform(10, 8, 4, 2)", Key(0x2a996f5913b34e87)),
    ("random_uniform(11, 9, 2, 3)", Key(0x8ecf059580487a3c)),
    ("random_uniform(12, 10, 3, 4)", Key(0xb7e320d21a086d38)),
    ("random_uniform(13, 11, 4, 5)", Key(0x90ab7cdb0e9b8d16)),
    ("random_uniform(14, 12, 2, 6)", Key(0x4e60008bca35d6e6)),
    ("random_uniform(15, 13, 3, 7)", Key(0x287c320df56eb89a)),
    ("random_uniform(16, 14, 4, 8)", Key(0x204242d4803c2ecb)),
    ("random_uniform(17, 15, 2, 9)", Key(0x0b09cb738ecadfc4)),
    ("random_uniform(18, 16, 3, 10)", Key(0xacc88896b2078777)),
    ("random_uniform(19, 6, 4, 11)", Key(0xb6118f607479c5ec)),
    ("random_uniform(20, 7, 2, 12)", Key(0x8c4de790cf336d54)),
    ("random_uniform(8, 8, 3, 13)", Key(0x0d8f2439eb31b772)),
    ("random_uniform(9, 9, 4, 14)", Key(0xf9700eaa14facc01)),
    ("random_uniform(10, 10, 2, 15)", Key(0x498db55aacf57fd1)),
    ("random_uniform(11, 11, 3, 16)", Key(0xc93958dc76d887fc)),
    ("random_uniform(12, 12, 4, 17)", Key(0x67d5b98b75449a04)),
    ("random_uniform(13, 13, 2, 18)", Key(0x47873db65e79e33f)),
    ("random_uniform(14, 14, 3, 19)", Key(0x29a2429f7b4ed7b4)),
    ("random_uniform(15, 15, 4, 20)", Key(0x5fa5c62c81c7a896)),
    ("random_uniform(16, 16, 2, 21)", Key(0x0a92892beb5ba19e)),
    ("random_uniform(17, 6, 3, 22)", Key(0x8291d4d7e2519313)),
    ("random_uniform(18, 7, 4, 23)", Key(0x2f1561bb89d2d4bd)),
    ("random_uniform(19, 8, 2, 24)", Key(0x82f285c61d6c59ce)),
    ("random_uniform(20, 9, 3, 25)", Key(0x12af4e2dfe36a3eb)),
    ("random_uniform(8, 10, 4, 26)", Key(0xdeb0cbc165e70964)),
    ("random_uniform(9, 11, 2, 27)", Key(0xe958bc03b0ccd301)),
    ("random_uniform(10, 12, 3, 28)", Key(0xc3163c4ed8a05889)),
    ("random_uniform(11, 13, 4, 29)", Key(0x8f51ac0c6dc212f7)),
    ("random_uniform(12, 14, 2, 30)", Key(0xf2a9232119b627ec)),
    ("random_uniform(13, 15, 3, 31)", Key(0xc0239e8b65a4a157)),
    ("random_uniform(14, 16, 4, 32)", Key(0x63ba1496ab5f3f8a)),
    ("random_uniform(15, 6, 2, 33)", Key(0xe9bcb636545ad7a1)),
    ("random_uniform(16, 7, 3, 34)", Key(0x35a4cd10fe2c7278)),
    ("random_uniform(17, 8, 4, 35)", Key(0xf7d32d14c8331fbd)),
    ("random_uniform(18, 9, 2, 36)", Key(0xf8c9b80c07af155a)),
    ("random_uniform(19, 10, 3, 37)", Key(0x5eea0547b27a8eee)),
    ("random_uniform(20, 11, 4, 38)", Key(0x2c0b5ffa9542019b)),
    ("random_uniform(8, 12, 2, 39)", Key(0xdb0f3257e6173166)),
    ("random_gnp(8, 0.15, 0)", Key(0xc1ae3e4204e0e715)),
    ("random_gnp(9, 0.3, 1)", Key(0x1f1ffaa1fff0533c)),
    ("random_gnp(10, 0.5, 2)", Key(0x0b771ba0daab955b)),
    ("random_gnp(11, 0.15, 3)", Key(0x2a83745d6b0258df)),
    ("random_gnp(12, 0.3, 4)", Key(0x8685b8a84b54e2be)),
    ("random_gnp(13, 0.5, 5)", Key(0xbfc9a29fe05960be)),
    ("random_gnp(14, 0.15, 6)", Key(0x3d370f8f7fafb51f)),
    ("random_gnp(15, 0.3, 7)", Key(0x410e955a4caeda44)),
    ("random_gnp(16, 0.5, 8)", Key(0x7b8a4e56b283a23b)),
    ("random_gnp(17, 0.15, 9)", Key(0x0e1e79fdc8e3f854)),
    ("random_gnp(18, 0.3, 10)", Key(0x547d4daf56359f82)),
    ("random_gnp(19, 0.5, 11)", Key(0xf81821b65f86a44b)),
    ("random_gnp(20, 0.15, 12)", Key(0x9eae166944793450)),
    ("random_gnp(21, 0.3, 13)", Key(0x2e8a9c1adfd3509a)),
    ("random_gnp(22, 0.5, 14)", Key(0xbdcfc679b4d32a41)),
    ("random_gnp(23, 0.15, 15)", Key(0xc1319dbb371b6439)),
    ("random_gnp(24, 0.3, 16)", Key(0x5c9d3ef4e8fb7343)),
    ("random_gnp(8, 0.5, 17)", Key(0x3e7818aea91937da)),
    ("random_gnp(9, 0.15, 18)", Key(0x8f0c136cf700703a)),
    ("random_gnp(10, 0.3, 19)", Key(0xc596ecb1eef968b5)),
    ("random_ktree(10, 1, 0)", Key(0xff9ad8be9c3d83f6)),
    ("random_ktree(11, 2, 1)", Key(0x478b7361e8095322)),
    ("random_ktree(12, 3, 2)", Key(0x1ea158523d7786a4)),
    ("random_ktree(13, 4, 3)", Key(0x6a31307bff205345)),
    ("random_ktree(14, 1, 4)", Key(0xc1bb46380e8fc385)),
    ("random_ktree(15, 2, 5)", Key(0xf2f08f3e7520a119)),
    ("random_ktree(16, 3, 6)", Key(0x3d167b72f09d3f3e)),
    ("random_ktree(17, 4, 7)", Key(0xb7f926d2140fce15)),
    ("random_ktree(18, 1, 8)", Key(0xef3e2b1a377c88f1)),
    ("random_ktree(19, 2, 9)", Key(0x2cb3c358fcf46e70)),
    ("random_ktree(20, 3, 10)", Key(0xfc3fe974b82db23d)),
    ("random_ktree(21, 4, 11)", Key(0x32e82cb41eed593b)),
    ("random_ktree(22, 1, 12)", Key(0xb07377895262e584)),
    ("random_ktree(23, 2, 13)", Key(0xd2d1f76fea37398f)),
    ("random_ktree(24, 3, 14)", Key(0x762b6e608b51dc42)),
    ("random_ktree(10, 4, 15)", Key(0xb92eefdefe32f9eb)),
    ("random_ktree(11, 1, 16)", Key(0x6cdca5388d84277a)),
    ("random_ktree(12, 2, 17)", Key(0x3bbcbd88f5c4442e)),
    ("random_ktree(13, 3, 18)", Key(0xc84d040b82299a03)),
    ("random_ktree(14, 4, 19)", Key(0x8a95c454c30270a6)),
];
