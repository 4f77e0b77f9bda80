"""Spans around calls into vdropstat's public functions, kept in memory.

The program itself is not instrumented: ``Tracer.installed()`` swaps each
listed function (and the ``DropDistribution`` query methods) for a timing
wrapper in every vdropstat module that binds it, and puts the originals
back on exit. A span is a dict with the keys id, name, parent, run, start
and end (``time.perf_counter`` seconds), plus whatever the function's
annotator reads off its arguments and result.
"""

from __future__ import annotations

import importlib
import os
import sys
import time
from collections import defaultdict
from contextlib import contextmanager


def _run_attrs(args, kwargs, rep):
    lat = rep.lattice
    return {"stage_s": [log.seconds for log in rep.stage_logs],
            "cells": lat.s_cells * lat.d_cells,
            "lost_mass": rep.lost_mass,
            "ledger_gap": rep.ledger_gap}


def _run_mc_attrs(args, kwargs, emp):
    spec = args[0]
    config = args[1] if len(args) > 1 else kwargs.get("config")
    return {"samples": emp.n, "buses": spec.n,
            "shards": config.shards if config else 1,
            "nonlinear": bool(config and config.nonlinear)}


def _file_attrs(args, kwargs, result):
    target = args[0]
    if isinstance(target, (str, bytes)) or hasattr(target, "__fspath__"):
        return {"bytes": os.path.getsize(target)}
    return {}


# module -> [(public function, annotator or None)]
FUNCTIONS = {
    "dp_engine": [("plan_lattice", None), ("run", _run_attrs),
                  ("joint_to_csv", lambda a, k, r: _file_attrs(a[1:], k, r))],
    "mixed_dist": [("marginal_drop", None), ("write_density_csv", _file_attrs)],
    "mc_oracle": [("counter_uniforms", None), ("sample_load", None),
                  ("run_mc", _run_mc_attrs)],
    "distflow": [("solve_nonlinear", lambda a, k, r: {"iterations": r.iterations})],
    "feeder_model": [("parse_feeder", None)],
    "cli": [("main", lambda a, k, r: {"argv0": (a[0] if a else k["argv"])[0]})],
}
QUERIES = ("total_mass", "atom_at_zero", "cdf", "cdf_left", "prob_exceed",
           "knots", "quantile", "mean_std")


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.run = ""
        self._stack: list[int] = []

    def _open(self, name: str) -> dict:
        rec = {"id": len(self.spans), "name": name,
               "parent": self._stack[-1] if self._stack else None,
               "run": self.run, "start": 0.0, "end": 0.0}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        rec["start"] = time.perf_counter()
        return rec

    def _close(self, rec: dict) -> None:
        rec["end"] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str, run: str):
        """A root span for one benchmark operation; its calls share ``run``."""
        self.run = run
        rec = self._open(name)
        try:
            yield rec
        finally:
            self._close(rec)

    def wrap(self, name, fn, annotate=None):
        def traced(*args, **kwargs):
            rec = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if annotate is not None:
                rec.update(annotate(args, kwargs, result))
            return result
        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self):
        from vdropstat.mixed_dist import DropDistribution

        modules = [m for k, m in list(sys.modules.items())
                   if k == "vdropstat" or k.startswith("vdropstat.")]
        undo = []
        try:
            for mod_name, funcs in FUNCTIONS.items():
                home = importlib.import_module(f"vdropstat.{mod_name}")
                for attr, annotate in funcs:
                    fn = getattr(home, attr)
                    traced = self.wrap(f"{mod_name}.{attr}", fn, annotate)
                    for mod in modules:
                        for key, value in list(vars(mod).items()):
                            if value is fn:
                                undo.append((mod, key, fn))
                                setattr(mod, key, traced)
            for meth in QUERIES:
                fn = DropDistribution.__dict__[meth]
                undo.append((DropDistribution, meth, fn))
                setattr(DropDistribution, meth, self.wrap(f"mixed_dist.{meth}", fn))
            yield self
        finally:
            for owner, key, fn in reversed(undo):
                setattr(owner, key, fn)


def self_times(spans: list[dict]) -> dict[str, float]:
    """Seconds per layer (name prefix) spent in its own spans, not in callees.

    Calls are sequential, so a span's children never overlap and the part
    of its interval they cover is the sum of their durations.
    """
    covered = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            covered[s["parent"]] += s["end"] - s["start"]
    out = defaultdict(float)
    for s in spans:
        out[s["name"].split(".")[0]] += s["end"] - s["start"] - covered[s["id"]]
    return dict(out)


def is_query(span: dict) -> bool:
    return span["name"].split(".")[-1] in QUERIES
