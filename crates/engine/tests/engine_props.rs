//! Property tests for the engine's low-level machinery: key packing,
//! predicate compilation, accumulator algebra, and the chunk aggregation
//! kernel.

use olap_engine::aggregate::{accumulate_chunk, GroupLanes, GroupTable};
use olap_engine::KeyLayout;
use olap_model::{AggOp, CubeSchema, HierarchyBuilder, MeasureDef, MemberId, Predicate};
use proptest::prelude::*;

/// Cardinalities plus a valid member per component.
fn layout_case() -> impl Strategy<Value = (Vec<usize>, Vec<u32>)> {
    proptest::collection::vec(1usize..100_000, 1..5).prop_flat_map(|cards| {
        let members: Vec<BoxedStrategy<u32>> =
            cards.iter().map(|&c| (0..c as u32).boxed()).collect();
        (Just(cards), members)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Packing then unpacking any valid member tuple is the identity,
    /// component-wise and wholesale.
    #[test]
    fn key_pack_unpack_identity((cards, members) in layout_case()) {
        let layout = KeyLayout::for_cardinalities(&cards);
        prop_assume!(layout.fits_u64());
        let ids: Vec<MemberId> = members.iter().map(|&m| MemberId(m)).collect();
        let key = layout.pack(&ids);
        prop_assert_eq!(layout.unpack(key), ids.clone());
        for (c, id) in ids.iter().enumerate() {
            prop_assert_eq!(layout.unpack_component(key, c), *id);
        }
    }

    /// Clearing a component then re-packing any member into it never
    /// disturbs the other components.
    #[test]
    fn clear_and_repack_is_local((cards, members) in layout_case()) {
        let layout = KeyLayout::for_cardinalities(&cards);
        prop_assume!(layout.fits_u64());
        let ids: Vec<MemberId> = members.iter().map(|&m| MemberId(m)).collect();
        let key = layout.pack(&ids);
        for c in 0..ids.len() {
            let mut rekeyed = layout.clear_component(key, c);
            layout.pack_component(&mut rekeyed, c, MemberId(0));
            for (other, id) in ids.iter().enumerate() {
                if other != c {
                    prop_assert_eq!(layout.unpack_component(rekeyed, other), *id);
                }
            }
            prop_assert_eq!(layout.unpack_component(rekeyed, c), MemberId(0));
        }
    }

    /// Distinct member tuples always pack to distinct keys (injectivity).
    #[test]
    fn packing_is_injective(
        (cards, a) in layout_case(),
        perturb in proptest::collection::vec(any::<bool>(), 1..5),
    ) {
        let layout = KeyLayout::for_cardinalities(&cards);
        prop_assume!(layout.fits_u64());
        let ids_a: Vec<MemberId> = a.iter().map(|&m| MemberId(m)).collect();
        // Derive a second tuple by flipping some components to other values.
        let mut ids_b = ids_a.clone();
        for (c, flip) in perturb.iter().enumerate().take(ids_b.len()) {
            if *flip && cards[c] > 1 {
                ids_b[c] = MemberId((ids_b[c].0 + 1) % cards[c] as u32);
            }
        }
        if ids_a != ids_b {
            prop_assert_ne!(layout.pack(&ids_a), layout.pack(&ids_b));
        }
    }

    /// A compiled predicate mask agrees with rolling up and testing each
    /// member individually.
    #[test]
    fn predicate_masks_agree_with_rollup(
        parents in proptest::collection::vec(0u32..4, 1..40),
        wanted in proptest::collection::vec(0u32..4, 1..3),
    ) {
        let mut b = HierarchyBuilder::new("H", ["leaf", "top"]);
        for (leaf, &p) in parents.iter().enumerate() {
            b.add_member_chain(&[format!("l{leaf}"), format!("t{p}")]).unwrap();
        }
        let h = b.build().unwrap();
        let top_card = h.level(1).unwrap().cardinality() as u32;
        let schema = CubeSchema::new(
            "C",
            vec![h],
            vec![MeasureDef::new("m", AggOp::Sum)],
        );
        // Pick wanted members from the names that actually occur (parents
        // are interned sparsely, so `t{k}` may not exist for every k).
        let top = schema.hierarchy(0).unwrap().level(1).unwrap();
        let names: Vec<String> = wanted
            .iter()
            .map(|w| top.member_name(MemberId(w % top_card)).unwrap().to_string())
            .collect();
        let pred = Predicate::is_in(&schema, "top", &names).unwrap();
        let filter = olap_engine::predicate::CompiledFilter::compile(
            &schema,
            std::slice::from_ref(&pred),
            &[Some(0)],
        )
        .unwrap();
        let mask = &filter.masks()[0].mask;
        let hier = schema.hierarchy(0).unwrap();
        for leaf in 0..parents.len() {
            let rolled = hier.roll_member(0, 1, MemberId(leaf as u32)).unwrap();
            prop_assert_eq!(mask[leaf], pred.matches(rolled));
        }
    }
}

/// One group-by component of a kernel case: the rolled-to level's
/// cardinality and the roll-up map from fact codes to its members. Wide
/// levels (up to 16 bits) keep four components within a machine word.
fn kernel_component() -> impl Strategy<Value = (usize, Vec<u32>)> {
    prop_oneof![1usize..6, 1usize..60_000]
        .prop_flat_map(|card| (Just(card), proptest::collection::vec(0..card as u32, 1..24)))
}

fn agg_op() -> impl Strategy<Value = AggOp> {
    (0usize..5).prop_map(|i| [AggOp::Sum, AggOp::Min, AggOp::Max, AggOp::Count, AggOp::Avg][i])
}

/// A kernel input: components, operators, per-component fact-code lanes,
/// per-measure value lanes, an optional selection mask, the row at which
/// the rows split into two chunks, and whether every component but the
/// last rolls to one member (keys then differ only in high bits).
type KernelCase = (
    Vec<(usize, Vec<u32>)>,
    Vec<AggOp>,
    Vec<Vec<u32>>,
    Vec<Vec<f64>>,
    Option<Vec<bool>>,
    usize,
    bool,
);

fn kernel_case() -> impl Strategy<Value = KernelCase> {
    (
        proptest::collection::vec(kernel_component(), 1..5),
        proptest::collection::vec(agg_op(), 1..4),
        0usize..400,
        any::<bool>(),
    )
        .prop_flat_map(|(comps, ops, rows, high_only)| {
            let codes: Vec<_> = comps
                .iter()
                .map(|(_, roll)| proptest::collection::vec(0..roll.len() as u32, rows))
                .collect();
            let values =
                proptest::collection::vec(proptest::collection::vec(any::<f64>(), rows), ops.len());
            let mask = proptest::option::of(proptest::collection::vec(any::<bool>(), rows));
            (Just(comps), Just(ops), codes, values, mask, 0..=rows, Just(high_only))
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The three-phase chunk kernel equals row-at-a-time
    /// `GroupTable::update` bit for bit — same keys in the same first-seen
    /// order, same accumulator bits — for every operator, with or without
    /// a selection, when the rows arrive as two chunks into one table.
    #[test]
    fn chunk_kernel_equals_row_at_a_time_updates(
        (mut comps, ops, codes, values, mask, split, high_only) in kernel_case(),
    ) {
        if high_only {
            let last = comps.len() - 1;
            for (_, roll) in &mut comps[..last] {
                roll.fill(0);
            }
        }
        let cards: Vec<usize> = comps.iter().map(|(card, _)| *card).collect();
        let layout = KeyLayout::for_cardinalities(&cards);
        prop_assert!(layout.fits_u64());
        let rows = values[0].len();
        let selected: Vec<u32> = match &mask {
            Some(m) => (0..rows as u32).filter(|&r| m[r as usize]).collect(),
            None => (0..rows as u32).collect(),
        };

        let mut expected: GroupTable<u64> = GroupTable::new(&ops);
        for &row in &selected {
            let row = row as usize;
            let members: Vec<MemberId> = comps
                .iter()
                .zip(&codes)
                .map(|((_, roll), lane)| MemberId(roll[lane[row] as usize]))
                .collect();
            let vals: Vec<f64> = values.iter().map(|lane| lane[row]).collect();
            expected.update(layout.pack(&members), &vals);
        }

        let mut actual: GroupTable<u64> = GroupTable::new(&ops);
        let mut lanes = GroupLanes::default();
        for (lo, hi) in [(0, split), (split, rows)] {
            let keys: Vec<(&[u32], &[u32])> = comps
                .iter()
                .zip(&codes)
                .map(|((_, roll), lane)| (&lane[lo..hi], roll.as_slice()))
                .collect();
            let measures: Vec<&[f64]> = values.iter().map(|lane| &lane[lo..hi]).collect();
            let local: Vec<u32> = selected
                .iter()
                .filter(|&&r| (lo..hi).contains(&(r as usize)))
                .map(|&r| r - lo as u32)
                .collect();
            let selection = mask.as_ref().map(|_| local.as_slice());
            accumulate_chunk(&mut actual, &mut lanes, &layout, hi - lo, selection, &keys, &measures);
        }

        let (expected_keys, expected_cols) = expected.finish();
        let (actual_keys, actual_cols) = actual.finish();
        prop_assert_eq!(actual_keys, expected_keys);
        let bits = |cols: &[Vec<f64>]| -> Vec<Vec<u64>> {
            cols.iter().map(|c| c.iter().map(|v| v.to_bits()).collect()).collect()
        };
        prop_assert_eq!(bits(&actual_cols), bits(&expected_cols));
    }
}
