"""Acceptance suite: every release criterion at its stated tolerance.

Each test prints one PASS/FAIL line.  Run with `pytest tests/test_acceptance.py -v -s`.
"""

import itertools
import random
import time

import numpy as np
import pytest

from multisrc.classifier import (
    ClassifierHyper,
    NGramConfig,
    featurize,
    jackknife_labels,
    macro_f1,
    predict_source,
    train_linear,
)
from multisrc.conllu import Sentence, Token, Treebank, parse_conllu, write_conllu
from multisrc.encoder import MODE_NONE, EncoderConfig, SentenceEncoder, Vocabulary
from multisrc.harness import ExperimentConfig, ResultRow, compute_cell
from multisrc.metrics import las, lemma_accuracy, morph_f1
from multisrc.nn import Affine, Embedding, ParamSet, TrainerConfig
from multisrc.nn import tensor as T
from multisrc.oracle import DynamicOracle
from multisrc.parser_model import DependencyParser, ParserConfig, ParserHeader
from multisrc.pca import pca_project
from multisrc.registry import DataSource, DatasetGroup, Registry
from multisrc.schema import to_tsv
from multisrc.synth import (
    ambiguity_corpus,
    is_conflict_token,
    lookalike_of,
    mixture_corpus,
)
from multisrc.tagger import TaggerConfig
from multisrc.transitions import (
    LEFT_ARC,
    RIGHT_ARC,
    SHIFT,
    SWAP,
    ParserState,
    Transition,
    apply_transition,
    legal_transitions,
)
from multisrc.trees import DependencyTree, projective_order

from . import bruteforce
from . import decoder_reference as R
from .gradcheck import add, constant, dot, finite_difference_check, mul, random_param, vsum
from .helpers import is_projective, random_projective_tree, random_tree, treebank_from_sentences
from .test_metrics import naive_las, naive_lemma_acc, naive_morph_f1, random_pair


def report(number: int, description: str, passed: bool, detail: str = ""):
    status = "PASS" if passed else "FAIL"
    print(f"{status} criterion {number}: {description}" + (f" [{detail}]" if detail else ""))
    assert passed, f"criterion {number} failed: {description} {detail}"


def oracle_follow(gold, use_swap=True):
    state = ParserState.initial(len(gold))
    oracle = DynamicOracle(gold, use_swap=use_swap)
    steps = 0
    while not state.is_terminal():
        steps += 1
        if steps > 4 * len(gold) ** 2 + 50:
            return None
        costs = oracle.costs(state)
        if not use_swap:
            costs.pop(SWAP, None)
        best = min(costs.values())
        kind = [k for k, c in costs.items() if c == best][0]
        label = gold.deprel_of(state.stack[-1]) if kind in (LEFT_ARC, RIGHT_ARC) else None
        oracle.advance(state, kind)
        state = apply_transition(state, Transition(kind, label))
    return state.to_tree()


def test_criterion_01_oracle_completeness_projective():
    started = time.time()
    rng = random.Random(101)
    for _ in range(200):
        gold = random_projective_tree(rng.randrange(1, 11), rng)
        tree = oracle_follow(gold)
        exact = tree is not None and tree.heads == gold.heads and tree.deprels == gold.deprels
        if not exact:
            report(1, "oracle completeness on projective trees", False, f"tree {gold.heads}")
    elapsed = time.time() - started
    report(1, "min-cost transitions reconstruct 200 projective trees (LAS 100.0)",
           elapsed < 30, f"{elapsed:.1f}s")


def test_criterion_02_swap_coverage():
    started = time.time()
    rng = random.Random(202)
    nonprojective = []
    for _ in range(200):
        gold = random_tree(rng.randrange(1, 9), rng)
        if not is_projective(gold):
            nonprojective.append(gold)
        tree = oracle_follow(gold, use_swap=True)
        if tree is None or tree.heads != gold.heads:
            report(2, "swap oracle reconstructs all trees", False, f"tree {gold.heads}")
    failures_without_swap = 0
    for gold in nonprojective:
        tree = oracle_follow(gold, use_swap=False)
        if tree is None or tree.heads != gold.heads:
            failures_without_swap += 1
    elapsed = time.time() - started
    report(
        2,
        "SWAP reconstructs 200 random trees; disabling SWAP breaks non-projective ones",
        failures_without_swap >= 1 and len(nonprojective) >= 10 and elapsed < 30,
        f"{len(nonprojective)} non-projective, {failures_without_swap} fail without swap, {elapsed:.1f}s",
    )


def all_trees_of_size(n):
    out = []
    for heads in itertools.product(range(0, n + 1), repeat=n):
        if sum(1 for h in heads if h == 0) != 1 or any(h == i + 1 for i, h in enumerate(heads)):
            continue
        try:
            out.append(DependencyTree(heads=list(heads)))
        except Exception:
            continue
    return out


def sweep_tree_costs(gold):
    """Walk every policy-reachable state with a trajectory-synchronized
    oracle; compare each cost to the exhaustive-search loss delta."""
    proj = projective_order(gold)
    memo = {}
    recorded = {}
    checked = 0
    stack = [(ParserState.initial(len(gold)), DynamicOracle(gold))]
    while stack:
        state, oracle = stack.pop()
        sig = state.signature()
        costs = oracle.costs(state)
        if sig in recorded:
            assert recorded[sig] == costs, f"history-dependent costs at {sig}"
            continue
        recorded[sig] = costs
        deltas = bruteforce.exhaustive_costs(state, gold, proj, memo)
        for kind, delta in deltas.items():
            assert costs[kind] == delta, (gold.heads, sig, kind, costs[kind], delta)
            checked += 1
        for kind in bruteforce.policy_allowed(state, proj):
            clone = DynamicOracle(gold)
            clone.remaining = {k: set(v) for k, v in oracle.remaining.items()}
            clone.advance(state, kind)
            stack.append((apply_transition(state, bruteforce._transition(kind)), clone))
    return checked


def test_criterion_03_oracle_soundness_exhaustive():
    started = time.time()
    trees = []
    for n in (1, 2, 3, 4, 5):
        trees.extend(all_trees_of_size(n))
    rng = random.Random(303)
    sample6 = all_trees_of_size(6)
    rng.shuffle(sample6)
    trees.extend(sample6[:220])
    comparisons = sum(sweep_tree_costs(gold) for gold in trees)
    elapsed = time.time() - started
    report(
        3,
        "oracle costs equal exhaustive-search loss deltas on all reachable states (n <= 6)",
        elapsed < 120,
        f"{len(trees)} trees, {comparisons} exact comparisons, {elapsed:.1f}s",
    )


def test_criterion_04_gradient_checks_every_layer():
    started = time.time()
    worst = 0.0
    r = np.random.default_rng(404)

    # embedding
    ps = ParamSet(r)
    emb = Embedding(ps, "emb", 4, 3)
    probe3 = constant(r.uniform(-1, 1, 3))
    worst = max(worst, finite_difference_check(
        lambda: dot(add(emb(1), emb(2)), probe3), [emb.table]))

    # affine
    aff = Affine(ps, "aff", 3, 4)
    x3 = constant(r.uniform(-1, 1, 3))
    probe4 = constant(r.uniform(-1, 1, 4))
    worst = max(worst, finite_difference_check(
        lambda: dot(aff(x3), probe4), [aff.w, aff.b]))

    # LSTM cell
    hidden = 3
    w = random_param(r, "w", (4 * hidden, 2))
    u = random_param(r, "u", (4 * hidden, hidden))
    b = random_param(r, "b", (4 * hidden,))
    xin = random_param(r, "x", (2,))
    probe6 = constant(r.uniform(-1, 1, 2 * hidden))

    def cell_loss():
        h0, c0 = constant(np.zeros(hidden)), constant(np.zeros(hidden))
        hc = R.lstm_cell(xin, h0, c0, w, u, b)
        h1, c1 = R.split_state(hc, hidden)
        return dot(R.lstm_cell(xin, h1, c1, w, u, b), probe6)

    worst = max(worst, finite_difference_check(cell_loss, [w, u, b, xin]))

    # fused LSTM sequence, both directions, over a 4-step input matrix
    xs = random_param(r, "xs", (4, 2))
    probe_seq = constant(r.uniform(-1, 1, (4, hidden)))
    for reverse in (False, True):
        worst = max(worst, finite_difference_check(
            lambda: vsum(mul(T.lstm_sequence(xs, w, u, b, reverse), probe_seq)), [w, u, b, xs]))

    # attention
    from multisrc.nn import AdditiveAttention

    ps2 = ParamSet(np.random.default_rng(405))
    att = AdditiveAttention(ps2, "att", query_dim=3, enc_dim=2, hidden=3)
    att.v.data = np.random.default_rng(1).uniform(-0.5, 0.5, 3)
    query = random_param(r, "q", (3,))
    enc_data = [r.uniform(-1, 1, 2) for _ in range(3)]
    probe2 = constant(r.uniform(-1, 1, 2))
    params = (att.w_query, att.w_enc, att.v)

    def att_loss():
        stacked = T.stack([constant(e) for e in enc_data])
        return dot(R.attend(params, query, stacked, R.attention_keys(params, stacked)), probe2)

    worst = max(worst, finite_difference_check(att_loss, [*params, query]))

    # fused teacher-forced lemma decoder: LSTM, attention, head and summed cross-entropy
    h0, chars, tag, prev, lstm, attention, head = R.random_lemma_inputs(r, 3, 5)
    worst = max(worst, finite_difference_check(
        lambda: T.lemma_sequence(h0, chars, tag, prev, [2, 2, 1, 3, 0], lstm, attention, head),
        [h0, chars, tag, prev, *lstm, *attention, *head]))

    # parser scorer with the margin hinge loss (loss #1)
    tb = treebank_from_sentences("s", [["aa", "bb"]])
    vocab = Vocabulary.build(tb.sentences)
    cfg = ParserConfig(
        encoder=EncoderConfig(word_dim=4, char_dim=4, char_emb_dim=3, source_dim=2, hidden_dim=3),
        scorer_hidden=5,
    )
    parser = DependencyParser(cfg, ParserHeader(["dep", "root"], [], 9, vocab))
    sent = tb.sentences[0]
    state = ParserState.initial(2)
    state = apply_transition(state, Transition(SHIFT))

    def hinge_loss():
        encodings, _ = parser.encoder.encode_sentence(sent, MODE_NONE)
        scores = parser.score_transitions(state, parser.scorer_slots(encodings))
        return T.hinge(scores, [0, 3, 4], [2])

    scorer_params = [parser.hidden.w, parser.hidden.b, parser.out.w, parser.out.b,
                     parser.special.table]
    worst = max(worst, finite_difference_check(hinge_loss, scorer_params))

    # softmax cross-entropy through the encoder stack (loss #2)
    encoder_params = [parser.encoder.word_emb.table, parser.encoder.char_emb.table]

    def ce_loss():
        encodings, _ = parser.encoder.encode_sentence(sent, MODE_NONE)
        return T.cross_entropy(parser.hidden(T.concat(
            [encodings[0], encodings[1], parser.special(0), parser.special(1)])), 2)

    worst = max(worst, finite_difference_check(ce_loss, encoder_params))

    elapsed = time.time() - started
    report(4, "finite differences < 1e-4 for embedding/affine/LSTM/attention/lemma decoder/"
              "scorer/losses",
           worst < 1e-4 and elapsed < 60, f"worst rel err {worst:.2e}, {elapsed:.1f}s")


def test_criterion_05_metrics_match_independent_oracles():
    started = time.time()
    rng = random.Random(505)
    for _ in range(100):
        gold, pred = random_pair(rng)
        assert las(gold, pred).value == naive_las(gold, pred)
        assert morph_f1(gold, pred).value == naive_morph_f1(gold, pred)
        assert lemma_accuracy(gold, pred).value == naive_lemma_acc(gold, pred)
    elapsed = time.time() - started
    report(5, "las/morph_f1/lemma_accuracy equal nested-loop oracles on 100 random pairs",
           elapsed < 10, f"{elapsed:.1f}s")


# -- separability & harness criteria -----------------------------------------

ACCEPT_ENC = EncoderConfig(word_dim=20, char_dim=12, char_emb_dim=8, source_dim=8, hidden_dim=14)
ACCEPT_TAGGER = TaggerConfig(encoder=ACCEPT_ENC, tag_embedding_dim=8, decoder_hidden=16,
                             decoder_char_dim=8, attention_hidden=10)
ACCEPT_NGRAM = NGramConfig(1, 2, 1, 3, 2**14)
ACCEPT_CLF = ClassifierHyper(epochs=8, seed=0)


def ambiguity_registry(seed=1234):
    corpus = ambiguity_corpus(seed=seed)
    registry = Registry()
    for source_id, splits in corpus.items():
        registry.add_source(DataSource(source_id=source_id, language="syn",
                                       train=splits["train"], dev=splits["dev"]))
    registry.add_group(DatasetGroup(group_id="ambiguity", members=sorted(corpus)))
    return registry


def accept_config(task, **kw):
    defaults = dict(
        task=task,
        group_id="ambiguity",
        settings=["concat", "gold"],
        seeds=[0],
        trainer=TrainerConfig(learning_rate=0.01, epochs=30, seed=0),
        encoder=ACCEPT_ENC,
        scorer_hidden=24,
        tagger=ACCEPT_TAGGER,
        ngram=ACCEPT_NGRAM,
        classifier_hyper=ACCEPT_CLF,
    )
    defaults.update(kw)
    return ExperimentConfig(**defaults)


def conflict_tag_accuracy(gold_tb, pred_tb):
    correct = total = 0
    for gs, ps in zip(gold_tb.sentences, pred_tb.sentences):
        for gt, pt in zip(gs.tokens, ps.tokens):
            if is_conflict_token(gt):
                total += 1
                correct += gt.morph == pt.morph
    return 100.0 * correct / total


def conflict_sentence_las(gold_tb, pred_tb):
    keep = [i for i, s in enumerate(gold_tb.sentences) if any(is_conflict_token(t) for t in s.tokens)]
    sub_gold = Treebank(source_id=gold_tb.source_id,
                        sentences=[gold_tb.sentences[i] for i in keep])
    sub_pred = Treebank(source_id=pred_tb.source_id,
                        sentences=[pred_tb.sentences[i] for i in keep])
    return las(sub_gold, sub_pred).value


def test_criterion_06_dataset_embedding_separability():
    started = time.time()
    registry = ambiguity_registry()
    group = registry.groups["ambiguity"]

    tag_config = accept_config("tag_lemma",
                               trainer=TrainerConfig(learning_rate=0.01, epochs=30, seed=0))
    tag_outcomes = {
        setting: compute_cell(registry, group, tag_config, setting, seed=0)
        for setting in ("concat", "gold")
    }
    tag_acc = {}
    for setting, outcome in tag_outcomes.items():
        correct = total = 0
        for member in group.members:
            gold_tb = registry.source(member).dev
            pred_tb = outcome.predictions[member]
            for gs, ps in zip(gold_tb.sentences, pred_tb.sentences):
                for gt, pt in zip(gs.tokens, ps.tokens):
                    if is_conflict_token(gt):
                        total += 1
                        correct += gt.morph == pt.morph
        tag_acc[setting] = 100.0 * correct / total

    parse_config = accept_config("parse",
                                 trainer=TrainerConfig(learning_rate=0.01, epochs=30, seed=0))
    las_scores = {}
    for setting in ("concat", "gold"):
        outcome = compute_cell(registry, group, parse_config, setting, seed=0)
        values = []
        for member in group.members:
            gold_tb = registry.source(member).dev
            values.append(conflict_sentence_las(gold_tb, outcome.predictions[member]))
        las_scores[setting] = sum(values) / len(values)

    elapsed = time.time() - started
    ok = (
        tag_acc["gold"] >= 95.0
        and tag_acc["concat"] <= 60.0
        and las_scores["gold"] - las_scores["concat"] >= 10.0
        and elapsed < 300
    )
    report(
        6,
        "gold conditioning separates the conflict material, concat is majority-bounded",
        ok,
        f"tag gold {tag_acc['gold']:.1f} concat {tag_acc['concat']:.1f}; "
        f"LAS gold {las_scores['gold']:.1f} concat {las_scores['concat']:.1f}; {elapsed:.0f}s",
    )


def own_fold_leak(banks, result) -> bool:
    """Whether some jack-knife label differs from the prediction of a model
    trained on the other folds' vectors."""
    labelled = [(featurize(s.text, ACCEPT_NGRAM), tb.source_id) for tb in banks for s in tb.sentences]
    leak = False
    for fold in range(result.k):
        model = train_linear([ex for ex, f in zip(labelled, result.fold_of_sentence) if f != fold],
                             ACCEPT_NGRAM, ACCEPT_CLF)
        leak |= any(result.predictions[i] != predict_source(model, labelled[i][0])[0]
                    for i, f in enumerate(result.fold_of_sentence) if f == fold)
    return leak


def test_criterion_07_classifier_jackknife():
    started = time.time()
    rng = random.Random(707)
    word_lists_a = [[f"apple{rng.randrange(40)}", f"acorn{rng.randrange(40)}"] for _ in range(200)]
    word_lists_b = [[f"boat{rng.randrange(40)}", f"bridge{rng.randrange(40)}"] for _ in range(200)]
    banks = [
        treebank_from_sentences("src_a", word_lists_a),
        treebank_from_sentences("src_b", word_lists_b),
    ]
    result = jackknife_labels(banks, ACCEPT_NGRAM, ACCEPT_CLF)
    gold = ["src_a"] * 200 + ["src_b"] * 200
    f1 = macro_f1(gold, result.predictions)
    # on disjoint vocabularies every fold model labels like the all-folds
    # model, so the own-fold check also runs on a shared vocabulary, where
    # the all-folds model labels some sentence differently and a leak shows
    words = [f"w{i}" for i in range(12)]
    shared = [treebank_from_sentences(source, [[rng.choice(words) for _ in range(3)]
                                               for _ in range(20)])
              for source in ("src_a", "src_b")]
    shared_result = jackknife_labels(shared, ACCEPT_NGRAM, ACCEPT_CLF)
    seen = [predict_source(shared_result.model, featurize(s.text, ACCEPT_NGRAM))[0]
            for tb in shared for s in tb.sentences]
    sensitive = seen != shared_result.predictions
    leak = own_fold_leak(banks, result) or own_fold_leak(shared, shared_result)
    elapsed = time.time() - started
    report(
        7,
        "disjoint-vocabulary jack-knifing reaches macro F1 >= 0.99; no own-fold leakage on "
        "disjoint or shared vocabularies",
        f1 >= 0.99 and result.k == 5 and sensitive and not leak and elapsed < 60,
        f"macro F1 {f1:.4f}, k={result.k}, own-fold leak: {leak}, shared-vocabulary labels "
        f"differ from the all-folds model's: {sensitive}, {elapsed:.1f}s",
    )


def disjoint_registry_for_pred():
    rng = random.Random(88)
    registry = Registry()
    for source_id, stems in (("src_a", ("apple", "acorn")), ("src_b", ("boat", "bridge"))):
        word_lists = [[f"{stems[0]}{i % 9}", f"{stems[1]}{i % 7}"] for i in range(20)]
        registry.add_source(
            DataSource(
                source_id=source_id,
                language="syn",
                train=treebank_from_sentences(source_id, word_lists),
                dev=treebank_from_sentences(source_id, word_lists[:8], split="dev"),
            )
        )
    registry.add_group(DatasetGroup(group_id="g", members=["src_a", "src_b"]))
    return registry


def test_criterion_08_pred_equals_gold_bit_for_bit():
    started = time.time()
    registry = disjoint_registry_for_pred()
    group = registry.groups["g"]
    config = accept_config(
        "parse", group_id="g",
        trainer=TrainerConfig(learning_rate=0.02, epochs=6, seed=0),
    )
    gold_outcome = compute_cell(registry, group, config, "gold", seed=5)
    pred_outcome = compute_cell(registry, group, config, "pred", seed=5)

    # the degenerate premise: every jack-knifed and routed id equals gold
    assert pred_outcome.classifier_f1 == 1.0
    for member, routed in pred_outcome.routing.items():
        assert all(r == member for r in routed)

    rows_equal = [
        (g.value, g.correct, g.total) for g in gold_outcome.rows
    ] == [(p.value, p.correct, p.total) for p in pred_outcome.rows]
    bytes_equal = all(
        write_conllu(gold_outcome.predictions[m]) == write_conllu(pred_outcome.predictions[m])
        for m in group.members
    )
    params_equal = all(
        np.array_equal(p.data, pred_outcome.models["model"].params.params[name].data)
        for name, p in gold_outcome.models["model"].params.params.items()
    )
    elapsed = time.time() - started
    report(8, "pred setting reproduces gold bit-for-bit when predicted ids equal gold ids",
           rows_equal and bytes_equal and params_equal, f"{elapsed:.1f}s")


def test_criterion_09_zero_shot_routing():
    started = time.time()
    corpus = mixture_corpus(seed=909)
    registry = Registry()
    for source_id, splits in corpus.items():
        registry.add_source(DataSource(source_id=source_id, language="syn",
                                       train=splits["train"], dev=splits["dev"]))
    registry.add_group(DatasetGroup(group_id="mix",
                                    members=["style_a", "style_b", "style_mix"]))
    config = accept_config(
        "tag_lemma", group_id="mix", mode="zero_shot", held_out_source="style_mix",
        trainer=TrainerConfig(learning_rate=0.01, epochs=25, seed=0),
    )
    outcome = compute_cell(registry, registry.groups["mix"], config, "zero_shot", seed=0)

    dev = registry.source("style_mix").dev
    routed = outcome.routing["style_mix"]
    # per-kind routing: each blend component must reach its lookalike
    per_kind: dict[str, list[bool]] = {}
    for sent, route in zip(dev.sentences, routed):
        per_kind.setdefault(lookalike_of(sent), []).append(route == lookalike_of(sent))
    kind_rates = {k: 100.0 * sum(v) / len(v) for k, v in per_kind.items()}
    routing_rate = min(kind_rates.values())
    assert set(kind_rates) == {"style_a", "style_b"}

    def bundle_accuracy(pred_tb):
        correct = total = 0
        for gs, ps in zip(dev.sentences, pred_tb.sentences):
            for gt, pt in zip(gs.tokens, ps.tokens):
                total += 1
                correct += gt.morph == pt.morph
        return 100.0 * correct / total

    concat_acc = bundle_accuracy(outcome.predictions["concat"])
    pred_acc = bundle_accuracy(outcome.predictions["pred"])
    isolation = registry.accessed("style_mix", phases={"training", "classifier"}) == []
    elapsed = time.time() - started
    report(
        9,
        "zero-shot routing sends sentences to their lookalike and pred >= concat",
        routing_rate >= 90.0 and pred_acc >= concat_acc and isolation and elapsed < 300,
        f"routing {routing_rate:.0f}%, tag acc pred {pred_acc:.1f} vs concat {concat_acc:.1f}, {elapsed:.0f}s",
    )


def test_criterion_10_pca_matches_eigen_oracle():
    from .test_pca import oracle_pca

    rng = np.random.default_rng(1010)
    worst_coord = worst_ortho = 0.0
    for _ in range(30):
        matrix = rng.normal(size=(rng.integers(2, 10), rng.integers(2, 8)))
        coords, comps, _ = pca_project(matrix)
        o_coords, _, _ = oracle_pca(matrix)
        worst_coord = max(worst_coord, float(np.abs(coords - o_coords).max()))
        gram = comps @ comps.T
        worst_ortho = max(worst_ortho, float(np.abs(gram - np.eye(comps.shape[0])).max()))
    report(10, "PCA matches the Jacobi oracle (1e-6) with orthonormal components (1e-10)",
           worst_coord < 1e-6 and worst_ortho < 1e-10,
           f"coord err {worst_coord:.2e}, ortho err {worst_ortho:.2e}")


def test_criterion_11_experiment_cell_determinism():
    outputs = []
    for run_index in (0, 1):
        registry = disjoint_registry_for_pred()
        config = accept_config(
            "parse", group_id="g",
            trainer=TrainerConfig(learning_rate=0.02, epochs=3, seed=0),
        )
        outcome = compute_cell(registry, registry.groups["g"], config, "pred", seed=7)
        outputs.append(to_tsv(ResultRow, outcome.rows).encode("utf-8"))
    report(11, "re-running an experiment cell yields byte-identical results.tsv",
           outputs[0] == outputs[1])


def random_valid_treebank(rng):
    feats = ["Case=Nom", "Case=Acc", "Number=Sing", "Number=Plur", "Tense=Past"]
    deprels = ["nsubj", "obj", "det", "root", "amod"]
    forms = ["alpha", "Beta", "γάμμα", "d-elta", "e.psilon", "zeta'", "(eta)", "θ"]
    sentences = []
    for _ in range(rng.randrange(1, 5)):
        n = rng.randrange(1, 9)
        root = rng.randrange(1, n + 1)
        tokens = []
        for i in range(1, n + 1):
            head = 0 if i == root else rng.choice([h for h in range(1, n + 1) if h != i])
            misc = {}
            if rng.random() < 0.3:
                misc["SpaceAfter"] = "No"
            if rng.random() < 0.2:
                misc["Gloss"] = rng.choice(forms)
            tokens.append(
                Token(
                    id=i,
                    form=rng.choice(forms),
                    lemma=rng.choice(forms + [""]),
                    upos=rng.choice(["NOUN", "VERB", ""]),
                    morph=set(rng.sample(feats, rng.randrange(0, 4))),
                    head=head,
                    deprel=rng.choice(deprels),
                    misc=misc,
                )
            )
        sentences.append(Sentence(tokens=tokens, comments=["# sent"] if rng.random() < 0.4 else []))
    return Treebank(source_id="roundtrip_src", sentences=sentences)


def test_criterion_12_conllu_roundtrip_1000():
    started = time.time()
    rng = random.Random(1212)
    for _ in range(1000):
        tb = random_valid_treebank(rng)
        again = parse_conllu(write_conllu(tb), "roundtrip_src")
        assert len(again) == len(tb)
        for s1, s2 in zip(tb.sentences, again.sentences):
            for t1, t2 in zip(s1.tokens, s2.tokens):
                assert (t1.id, t1.form, t1.lemma, t1.upos, t1.head, t1.deprel) == (
                    t2.id, t2.form, t2.lemma, t2.upos, t2.head, t2.deprel)
                assert t1.morph == t2.morph and t1.misc == t2.misc
    elapsed = time.time() - started
    report(12, "parse-write identity on 1,000 randomized treebanks", True, f"{elapsed:.1f}s")
