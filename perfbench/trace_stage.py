"""Run one alphagraph CLI stage with spans recorded around each layer's calls.

Usage: python3 perfbench/trace_stage.py SPANS_JSON COMMAND [CLI ARGS...]

The program is not modified: public functions are wrapped from here, after
import, in every ``alphagraph`` module that holds a reference to them. Spans
are kept in memory and written to SPANS_JSON when the stage ends. The exit
code is the CLI's.
"""

from __future__ import annotations

import json
import sys
import time

from metrics import TRACED_SPANS


def _info_before(name: str, args) -> dict:
    """State that the call itself changes, read before it runs."""
    from alphagraph import autodiff
    if name == "autodiff.Tape.backward":
        return {"records": len(args[0])}
    if name == "model.model_forward":
        # a forward inside an active tape is a training batch
        return {"training": bool(autodiff._TAPE_STACK)}
    return {}


def _info_after(name: str, args, kwargs, result) -> dict:
    """Work counts for a finished call, computed outside its timed interval."""
    if name == "word2vec.train_cbow":
        from alphagraph import word2vec
        tokens, _ = word2vec.encode_corpus(args[0], args[1])
        return {"tokens": int(tokens.size), "epochs": kwargs["epochs"],
                "final_loss": float(result.epoch_losses[-1])}
    if name == "embeddings.train_glove":
        return {"pairs": 2 * len(args[0].counts), "epochs": kwargs["epochs"]}
    if name == "model.train":
        return {"epochs": len(result.trace)}
    if name == "model.predict":
        return {"samples": args[1].n}
    if name == "factors.compute_factors":
        return {"cells": int(result.values.size)}
    if name == "news.daily_stock_news_vectors":
        return {"bytes": int(result.vectors.nbytes)}
    return {}


class Tracer:
    """In-memory span recorder: [name, start, end, parent index, info]."""

    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        tracer = self

        def traced(*args, **kwargs):
            parent = tracer._stack[-1] if tracer._stack else -1
            span = [name, 0.0, 0.0, parent, _info_before(name, args)]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                tracer._stack.pop()
            span[4].update(_info_after(name, args, kwargs, result))
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        import importlib
        for name in TRACED_SPANS:
            module_name, attr = name.split(".", 1)
            if module_name == "cli":
                continue    # stage handlers are wrapped in cli.COMMANDS below
            module = importlib.import_module(f"alphagraph.{module_name}")
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                setattr(cls, method, self.wrap(name, getattr(cls, method)))
                continue
            original = getattr(module, attr)
            wrapped = self.wrap(name, original)
            for loaded_name, loaded in list(sys.modules.items()):
                if loaded_name.split(".")[0] != "alphagraph":
                    continue
                for key, value in list(vars(loaded).items()):
                    if value is original:
                        setattr(loaded, key, wrapped)
        from alphagraph import cli
        for command, handler in list(cli.COMMANDS.items()):
            cli.COMMANDS[command] = self.wrap(f"cli.{command}", handler)


def main(argv: list[str]) -> int:
    spans_path, cli_argv = argv[0], argv[1:]
    start = time.perf_counter()
    from alphagraph import cli
    import_s = time.perf_counter() - start
    tracer = Tracer()
    tracer.install()
    code = cli.main(cli_argv)
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump({"import_s": import_s, "exit": code, "spans": tracer.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
