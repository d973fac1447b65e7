"""Text preprocessing, daily news vectors, and co-mention counting."""

import datetime as dt
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from alphagraph.errors import DataError
from alphagraph.news import (NewsArticle, build_cooccurrence, build_vocabulary,
                             clean_tokens, daily_stock_news_vectors, load_articles,
                             news_cells, news_vector)
from alphagraph.word2vec import WordEmbeddingSet

from helpers import cooccurrence_dense, cooccurrence_value

CAL = [dt.date(2020, 1, 6) + dt.timedelta(days=k) for k in (0, 1, 2, 3, 4, 7, 8)]


def emb_of(mapping):
    vocab = {tok: i for i, tok in enumerate(sorted(mapping))}
    vectors = np.array([mapping[tok] for tok in sorted(mapping)], dtype=float)
    return WordEmbeddingSet(vocab, vectors)


def art(i, date, symbols, tokens):
    return NewsArticle(f"A{i}", date, symbols, tokens)


# ---------------------------------------------------------------------------
# loading
# ---------------------------------------------------------------------------

def _news_file(path, records) -> None:
    path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")


def _records(n=10):
    return [{"id": f"A{k}", "date": (dt.date(2020, 1, 1) + dt.timedelta(days=k)).isoformat(),
             "symbols": ["AAA", "BBB"][:k % 2 + 1], "text": f"The Market moved {k}%"}
            for k in range(n)]


def test_load_keeps_the_articles_dated_in_the_window(tmp_path):
    """The articles dated from ``since`` up to ``before`` are those of the
    whole file, in its order and with the same tokens; no article in the
    window is an empty list."""
    path = tmp_path / "news.jsonl"
    _news_file(path, _records())
    whole = load_articles(path)
    since, before = dt.date(2020, 1, 3), dt.date(2020, 1, 7)
    kept = load_articles(path, since=since, before=before)
    assert kept == [a for a in whole if since <= a.date < before]
    assert [a.id for a in kept] == ["A2", "A3", "A4", "A5"]
    assert load_articles(path, before=since) == whole[:2]
    assert load_articles(path, since=dt.date(2021, 1, 1)) == []


@pytest.mark.parametrize("line, edit", [
    (10, {"date": "2020-13-01"}),
    (1, {"text": 7}),
    (9, {"symbols": "AAA"}),
])
def test_load_checks_every_line_in_or_out_of_the_window(tmp_path, line, edit):
    """A malformed line outside the window is the error a whole load
    raises, naming the same line."""
    records = _records()
    records[line - 1].update(edit)
    path = tmp_path / "news.jsonl"
    _news_file(path, records)
    with pytest.raises(DataError) as whole:
        load_articles(path)
    with pytest.raises(DataError) as window:
        load_articles(path, since=dt.date(2020, 1, 3), before=dt.date(2020, 1, 7),
                      tokenize=False)
    assert f"line {line}: malformed news record" in str(whole.value)
    assert str(window.value) == str(whole.value)


@pytest.mark.parametrize("record", [
    {"id": "A0", "date": "2020-01-01", "text": 5},
    {"id": "A0", "date": "2020-01-01", "text": None},
    {"id": "A0", "date": "2020-01-01", "text": ["a"]},
    {"id": "A0", "date": "2020-01-01"},
    {"id": "A\ud800", "date": "2020-01-01", "text": 5},
    {"id": "A0", "date": "2020-01-01", "text": "a\ud800"},
])
def test_untokenized_load_rejects_the_texts_a_tokenized_one_does(tmp_path, record):
    """Without tokenizing, a text that is missing, not a string or holds a
    lone surrogate is the error it is with tokenizing."""
    path = tmp_path / "news.jsonl"
    _news_file(path, [record])
    messages = []
    for tokenize in (True, False):
        with pytest.raises(DataError) as exc:
            load_articles(path, tokenize=tokenize)
        messages.append(str(exc.value))
    assert messages[0] == messages[1]


def test_untokenized_load_keeps_ids_dates_and_symbols(tmp_path):
    path = tmp_path / "news.jsonl"
    _news_file(path, _records())
    whole, bare = load_articles(path), load_articles(path, tokenize=False)
    assert [(a.id, a.date, a.symbols) for a in bare] == [(a.id, a.date, a.symbols)
                                                         for a in whole]
    assert all(a.tokens is None for a in bare) and all(a.tokens for a in whole)


# ---------------------------------------------------------------------------
# preprocessing and vocabulary
# ---------------------------------------------------------------------------

def test_punctuation_and_url_only_text_is_empty():
    assert clean_tokens("!!! ??? ... http://example.com/x?a=1") == []
    assert clean_tokens("www.site.io/path , . ;") == []
    assert clean_tokens("see www.site.io/path , . ;") == ["see"]


def test_whitespace_tokenizer_keeps_repeats():
    """clean_tokens splits at whitespace and keeps every occurrence."""
    assert clean_tokens("buy\tsell  buy\nbuy") == ["buy", "sell", "buy", "buy"]


def test_stopwords_removed_and_lowercased():
    assert clean_tokens("The Market IS Up") == ["market", "up"]


def test_min_count_cutoff_excludes_rare_tokens():
    corpus = [["rare"] * 9 + ["common"] * 12]
    vocab = build_vocabulary(corpus, min_count=10)
    assert "common" in vocab and "rare" not in vocab
    vocab9 = build_vocabulary(corpus, min_count=9)
    assert "rare" in vocab9


def test_vocabulary_deterministic_ordering():
    corpus = [["b", "a", "b", "c", "a", "a"]]
    vocab = build_vocabulary(corpus, min_count=1)
    assert vocab == {"a": 0, "b": 1, "c": 2}


# ---------------------------------------------------------------------------
# news vectors
# ---------------------------------------------------------------------------

def test_news_vector_single_token_is_that_vector():
    emb = emb_of({"x": [1.0, 2.0], "y": [3.0, 4.0]})
    assert np.array_equal(news_vector(["x"], emb), [1.0, 2.0])


def test_news_vector_two_tokens_midpoint():
    emb = emb_of({"x": [1.0, 2.0], "y": [3.0, 4.0]})
    assert np.allclose(news_vector(["x", "y"], emb), [2.0, 3.0])


def test_news_vector_is_the_mean_of_the_in_vocabulary_tokens():
    emb = emb_of({"x": [1.0, 2.0], "y": [3.0, 4.0]})
    vec = news_vector(["zz", "x", "ww", "y", "x"], emb)
    assert np.array_equal(vec, emb.vectors[[0, 1, 0]].mean(axis=0))


def test_news_vector_all_out_of_vocabulary_is_zero():
    emb = emb_of({"x": [1.0, 2.0]})
    assert np.array_equal(news_vector(["zz", "ww"], emb), [0.0, 0.0])


@settings(max_examples=40, deadline=None)
@given(st.lists(st.sampled_from(["a", "b", "c", "d"]), min_size=1, max_size=12))
def test_mean_vector_norm_bounded_by_max_token_norm(tokens):
    rng = np.random.default_rng(0)
    emb = emb_of({tok: rng.normal(size=3) for tok in "abcd"})
    vec = news_vector(tokens, emb)
    max_norm = max(np.linalg.norm(emb.vectors[i]) for i in range(4))
    assert np.linalg.norm(vec) <= max_norm + 1e-12


# ---------------------------------------------------------------------------
# daily panel
# ---------------------------------------------------------------------------

def test_single_article_previous_day_becomes_next_day_vector():
    emb = emb_of({"x": [2.0, 4.0]})
    articles = [art(0, CAL[0], ["AAA"], ["x"])]
    panel = daily_stock_news_vectors(articles, emb, ["AAA"], CAL)
    assert np.array_equal(panel.vectors[panel.row_index[1, 0]], [2.0, 4.0])
    assert not panel.vectors[panel.row_index[0, 0]].any()
    assert article_counts(articles, ["AAA"])[:2, 0].tolist() == [0, 1]


def test_same_day_article_excluded_from_that_day():
    articles = [art(0, CAL[2], ["AAA"], ["x"])]
    assert article_counts(articles, ["AAA"])[2:4, 0].tolist() == [0, 1]


def test_weekend_articles_map_to_monday():
    saturday = CAL[4] + dt.timedelta(days=1)
    articles = [art(0, saturday, ["AAA"], ["x"])]
    monday_idx = CAL.index(dt.date(2020, 1, 13))
    assert article_counts(articles, ["AAA"])[monday_idx, 0] == 1


def test_three_articles_average_matches_bruteforce():
    rng = np.random.default_rng(1)
    vocab = {f"w{i}": rng.normal(size=4) for i in range(6)}
    emb = emb_of(vocab)
    token_sets = [["w0", "w1"], ["w2"], ["w3", "w4", "w5"]]
    articles = [art(i, CAL[1], ["AAA"], toks) for i, toks in enumerate(token_sets)]
    panel = daily_stock_news_vectors(articles, emb, ["AAA"], CAL)
    expected = np.mean([news_vector(toks, emb) for toks in token_sets], axis=0)
    assert np.allclose(panel.vectors[panel.row_index[2, 0]], expected, atol=1e-12)


def test_unknown_symbol_gets_no_cell():
    articles = [art(0, CAL[0], ["AAA", "MISSING"], ["x"])]
    row_index, ids, placed = news_cells(articles, ["AAA"], CAL)
    assert ids == [["A0"], []]  # AAA's cell and the empty row
    assert ids[row_index[1, 0]] == ["A0"]
    assert [(a.id, rows) for a, rows in placed] == [("A0", [0])]


def test_news_cells_place_articles_as_the_panel_does():
    """The cell of each article and the ids of each cell, without any word
    vectors, are those of the news panel."""
    articles = [art(0, CAL[0], ["AAA", "BBB"], ["x"]), art(1, CAL[0], ["BBB"], []),
                art(2, CAL[3], ["CCC", "AAA"], ["x"]), art(3, CAL[-1], ["AAA"], ["x"])]
    row_index, ids, placed = news_cells(articles, ["AAA", "BBB"], CAL)
    panel = daily_stock_news_vectors(articles, emb_of({"x": [1.0]}), ["AAA", "BBB"], CAL)
    assert np.array_equal(row_index, panel.row_index)
    assert ids == [["A0"], ["A0", "A1"], ["A2"], []]
    assert [ids[r] for r in row_index[1]] == [["A0"], ["A0", "A1"]]
    assert [(a.id, rows) for a, rows in placed] == [("A0", [0, 1]), ("A1", [1]), ("A2", [2])]


def test_temporal_hygiene_deleting_future_articles():
    rng = np.random.default_rng(2)
    emb = emb_of({f"w{i}": rng.normal(size=3) for i in range(4)})
    articles = [art(i, CAL[i % 5], ["AAA"], [f"w{i % 4}"]) for i in range(10)]
    cutoff = CAL[3]
    full = daily_stock_news_vectors(articles, emb, ["AAA"], CAL)
    trimmed = daily_stock_news_vectors([a for a in articles if a.date < cutoff],
                                       emb, ["AAA"], CAL)
    cut_idx = CAL.index(cutoff)
    assert np.array_equal(dense(full)[:cut_idx + 1], dense(trimmed)[:cut_idx + 1])
    kept = [a for a in articles if a.date < cutoff]
    assert np.array_equal(article_counts(articles, ["AAA"])[:cut_idx + 1],
                          article_counts(kept, ["AAA"])[:cut_idx + 1])


def dense(panel):
    """The panel's (D, S, d_w) cell vectors."""
    return panel.vectors[panel.row_index]


def article_counts(articles, symbols):
    """The (D, S) article counts of the cells ``news_cells`` places the
    articles in."""
    row_index, ids, _ = news_cells(articles, symbols, CAL)
    return np.array([len(row) for row in ids])[row_index]


SYMBOLS = ["AAA", "BBB", "CCC"]
TOKENS = ["w0", "w1", "w2", "w3", "oov"]
article_sets = st.lists(
    st.tuples(st.integers(-2, 12),                                    # days after CAL[0]
              st.lists(st.sampled_from(SYMBOLS + ["ZZZ"]), max_size=4),  # ZZZ: unknown
              st.lists(st.sampled_from(TOKENS), max_size=4)),
    max_size=25)


@settings(max_examples=60, deadline=None)
@given(article_sets, st.integers(0, 2 ** 32 - 1))
def test_ragged_rows_equal_dense_means_bit_for_bit(drawn, seed):
    rng = np.random.default_rng(seed)
    emb = emb_of({tok: rng.normal(size=3) for tok in TOKENS[:-1]})
    articles = [art(i, CAL[0] + dt.timedelta(days=k), syms, toks)
                for i, (k, syms, toks) in enumerate(drawn)]
    panel = daily_stock_news_vectors(articles, emb, SYMBOLS, CAL)

    # the dense running sums the ragged rows replace
    sums = np.zeros((len(CAL), len(SYMBOLS), 3))
    counts = np.zeros((len(CAL), len(SYMBOLS)), dtype=np.int64)
    ids = {}
    for a in articles:
        later = [d for d, day in enumerate(CAL) if day > a.date]
        if not later:
            continue
        vec = news_vector(a.tokens, emb)
        for sym in a.symbols:
            if sym in SYMBOLS:
                cell = (later[0], SYMBOLS.index(sym))
                sums[cell] += vec
                counts[cell] += 1
                ids.setdefault(cell, []).append(a.id)
    nz = counts > 0
    means = np.zeros_like(sums)
    means[nz] = sums[nz] / counts[nz][:, None]

    row_index, cell_ids, _ = news_cells(articles, SYMBOLS, CAL)
    assert dense(panel).tobytes() == means.tobytes()
    assert np.array_equal(row_index, panel.row_index)
    assert np.array_equal(article_counts(articles, SYMBOLS), counts)
    n_cells = int(nz.sum())
    assert panel.vectors.shape == (n_cells + 1, 3)
    assert panel.row_index.dtype == np.int32
    assert np.all(panel.row_index[~nz] == n_cells)
    assert sorted(panel.row_index[nz].tolist()) == list(range(n_cells))
    assert not panel.vectors[n_cells].any()
    assert all(cell_ids[row_index[cell]] == want for cell, want in ids.items())
    assert cell_ids[n_cells] == []


def test_news_store_never_allocates_a_dense_panel():
    D, S, d_w = 2000, 200, 64
    rng = np.random.default_rng(3)
    calendar = [dt.date(2000, 1, 1) + dt.timedelta(days=k) for k in range(D)]
    symbols = [f"S{i:03d}" for i in range(S)]
    emb = emb_of({f"w{i}": rng.normal(size=d_w) for i in range(5)})
    articles = [art(i, calendar[int(rng.integers(D))],
                    [symbols[j] for j in rng.integers(S, size=3)], ["w0", "w3"])
                for i in range(100)]
    tracemalloc.start()
    try:
        panel = daily_stock_news_vectors(articles, emb, symbols, calendar)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert panel.vectors.shape[0] <= 301
    assert peak < 0.1 * D * S * d_w * 8


# ---------------------------------------------------------------------------
# co-occurrence
# ---------------------------------------------------------------------------

def test_cooccurrence_triple_article():
    x = build_cooccurrence([art(0, CAL[0], ["A", "B", "C"], [])], ["A", "B", "C"])
    assert all(cooccurrence_value(x, i, j) == 1 for i, j in ((0, 1), (0, 2), (1, 2)))
    assert cooccurrence_value(x, 0, 0) == 0


def test_cooccurrence_single_symbol_no_increment():
    x = build_cooccurrence([art(0, CAL[0], ["A"], [])], ["A", "B"])
    assert not x.counts


def test_cooccurrence_matches_bruteforce_pair_loop():
    rng = np.random.default_rng(3)
    universe = [f"S{i}" for i in range(6)]
    articles = []
    for i in range(40):
        k = int(rng.integers(1, 5))
        syms = list(rng.choice(universe, size=k, replace=False))
        articles.append(art(i, CAL[0], syms, []))
    x = build_cooccurrence(articles, universe)
    dense = cooccurrence_dense(x)

    index = {s: i for i, s in enumerate(universe)}
    expected = np.zeros((6, 6))
    for a in articles:
        ids = sorted({index[s] for s in a.symbols})
        for p in range(len(ids)):
            for q in range(p + 1, len(ids)):
                expected[ids[p], ids[q]] += 1
                expected[ids[q], ids[p]] += 1
    assert np.array_equal(dense, expected)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.lists(st.sampled_from(["A", "B", "C", "D"]), min_size=0, max_size=4),
                min_size=0, max_size=15))
def test_cooccurrence_symmetry_property(symbol_lists):
    articles = [art(i, CAL[0], syms, []) for i, syms in enumerate(symbol_lists)]
    x = build_cooccurrence(articles, ["A", "B", "C", "D"])
    dense = cooccurrence_dense(x)
    assert np.array_equal(dense, dense.T)
    assert np.all(np.diag(dense) == 0)


def test_coo_export_round_trip():
    x = build_cooccurrence([art(0, CAL[0], ["A", "B"], []),
                            art(1, CAL[0], ["A", "B", "C"], [])], ["A", "B", "C"])
    rows, cols, vals = x.to_coo()
    assert len(rows) == 2 * len(x.counts)
    dense = np.zeros((3, 3))
    dense[rows, cols] = vals
    assert np.array_equal(dense, cooccurrence_dense(x))
