"""The news stages: co-mention counts, word vectors, stock embeddings and
the stock graph.
"""

from __future__ import annotations

from .artifacts import (COOCCUR_FILE, GLOVE_FILE, GRAPH_FILE, NEWS_FILE, PANEL_FILE,
                        WORDVEC_FILE, OutDir, _load_cooccur, _load_glove, _NpzArrays,
                        _save_cooccur, _save_glove, _save_graph)
from .embeddings import build_knn_graph, train_glove
from .embfile import write_embeddings
from .news import build_cooccurrence, build_vocabulary, load_articles
from .samples import _train_end
from .word2vec import train_cbow


def cmd_cooccur(cfg, out: OutDir, args):
    news_path = out.read(NEWS_FILE)
    train_end = _train_end(cfg)
    with _NpzArrays(out.read(PANEL_FILE)) as z:
        z.dates("calendar")   # checked by the first stage that reads the panel
        symbols = z.strings("symbols")
    articles = [a for a in load_articles(news_path, tokenize=False) if a.date <= train_end]
    x = build_cooccurrence(articles, symbols)
    _save_cooccur(out.write(COOCCUR_FILE), x)
    return {"n_articles": len(articles), "n_pairs": len(x.counts)}


def cmd_train_word2vec(cfg, out: OutDir, args):
    news_path = out.read(NEWS_FILE)
    train_end = _train_end(cfg)
    articles = [a for a in load_articles(news_path) if a.date <= train_end]
    corpus = [a.tokens for a in articles]
    w = cfg["word2vec"]
    vocab = build_vocabulary(corpus, w["min_count"])
    emb = train_cbow(corpus, vocab, dim=w["dim"], window=w["window"],
                     negatives=w["negatives"], epochs=w["epochs"], lr=w["lr"],
                     seed=cfg["seed"])
    labels = sorted(vocab, key=vocab.get)
    write_embeddings(out.write(WORDVEC_FILE), labels, emb.vectors)
    return {"vocab_size": len(vocab), "epoch_losses": emb.epoch_losses}


def cmd_train_glove(cfg, out: OutDir, args):
    x = _load_cooccur(out.read(COOCCUR_FILE))
    g = cfg["glove"]
    emb = train_glove(x, dim=g["dim"], x_max=g["x_max"], alpha=g["alpha"],
                      epochs=g["epochs"], lr=g["lr"], seed=cfg["seed"])
    _save_glove(out.write(GLOVE_FILE), emb)
    return {"loss_first": emb.loss_trace[0], "loss_last": emb.loss_trace[-1]}


def cmd_graph(cfg, out: OutDir, args):
    emb = _load_glove(out.read(GLOVE_FILE))
    graph = build_knn_graph(emb, cfg["graph"]["k"])
    _save_graph(out.write(GRAPH_FILE), graph)
    return {"k": graph.k}
