"""Spans around the layer functions of dworkgm, installed from outside it.

The tracer replaces each traced function by a wrapper that records a span
(name, start, end, parent span, op id) in memory.  Functions are replaced
in every loaded ``dworkgm`` module that holds them, so names rebound by
``from ... import`` (``dwork.hyp_operator``, ``dwork.power_pullback``) are
traced too; methods are replaced on their class.  Span times are CPU times
of the process, as the ops' are.  Self time is a span's duration minus the
durations of its direct children.
"""

from __future__ import annotations

import functools
import sys
from contextlib import contextmanager
from pathlib import Path
from time import process_time

# (layer, class or None, attribute, short name); a span is named layer.short.
TRACED = [
    ("weyl", "WeylOp", "__mul__", "mul"),
    ("weyl", None, "euler_product", "euler_product"),
    ("weyl", None, "fourier", "fourier"),
    ("weyl", None, "mobius_infinity", "mobius_infinity"),
    ("weyl", None, "indicial_polynomial", "indicial_polynomial"),
    ("weyl", "IndicialPolynomial", "has_roots_exactly", "has_roots_exactly"),
    ("weyl", None, "finite_singular_points", "finite_singular_points"),
    ("weyl", None, "_rational_root_split", "rational_root_split"),
    ("weyl", None, "singular_support", "singular_support"),
    ("weyl", None, "parse_op", "parse_op"),
    ("hypergeom", None, "cancel", "cancel"),
    ("hypergeom", None, "hyp_operator", "hyp_operator"),
    ("hypergeom", "ExpMultiset", "__init__", "ExpMultiset"),
    ("hypergeom", None, "power_pullback", "power_pullback"),
    ("dwork", None, "full_report", "full_report"),
    ("dwork", None, "consistency_checks", "consistency_checks"),
    ("dwork", None, "g_block", "g_block"),
    ("dwork", None, "k_table", "k_table"),
    ("dwork", None, "ft_pair", "ft_pair"),
    ("dwork", None, "ft_identity_holds", "ft_identity_holds"),
    ("dwork", None, "_indicial_checks", "indicial_checks"),
    ("dwork", None, "_arrangement_checks", "arrangement_checks"),
    ("dwork", None, "singular_fibers", "singular_fibers"),
    ("syzygy", None, "verify_syzygies", "verify_syzygies"),
    ("syzygy", None, "syzygy_generators", "syzygy_generators"),
    ("syzygy", None, "jacobian_generators", "jacobian_generators"),
    ("syzygy", None, "syzygy_dimension_table", "syzygy_dimension_table"),
    ("syzygy", None, "_rank_mod", "rank_mod"),
    ("syzygy", None, "_rank_exact", "rank_exact"),
    ("arrangement", None, "milnor_fiber_dims", "milnor_fiber_dims"),
    ("arrangement", None, "torus_slice_dims", "torus_slice_dims"),
]

# Operators whose coefficient size feeds weyl.coeff_bits_max: the finished
# operators a report or check builds, not the partial products inside them.
# A product is measured only when the op itself calls it (no parent span).
BITS_MEASURED = {"weyl.euler_product", "weyl.fourier", "weyl.mobius_infinity",
                 "weyl.parse_op", "hypergeom.hyp_operator"}

NAMES = [f"{layer}.{short}" for layer, _, _, short in TRACED]
# Every span's self time is reported, except that of the rare exact rank.
SELF_S = [name for name in NAMES if name != "syzygy.rank_exact"]
CALLS = ["weyl.mul", "hypergeom.ExpMultiset", "syzygy.rank_mod",
         "syzygy.rank_exact"]


class Tracer:
    """In-memory span recorder; ``installed`` patches dworkgm while active."""

    def __init__(self, weyl_op_class: type):
        self.spans: list[list] = []  # [name, start, end, parent index, op id]
        self.stack = [-1]
        self.op_id = -1
        self.bits_max = 0
        self._weyl_op = weyl_op_class

    def _note_bits(self, op) -> None:
        if isinstance(op, self._weyl_op):
            for _, _, c in op.monomials():
                bits = max(c.numerator.bit_length(), c.denominator.bit_length())
                if bits > self.bits_max:
                    self.bits_max = bits

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self.stack
        bits_always = name in BITS_MEASURED
        bits_at_top = name == "weyl.mul"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1]
            stack.append(len(spans))
            span = [name, 0.0, 0.0, parent, self.op_id]
            spans.append(span)
            span[1] = process_time()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = process_time()
                stack.pop()
            if bits_always or (bits_at_top and parent < 0):
                self._note_bits(result)
            return result
        return traced

    @contextmanager
    def installed(self, mods):
        loaded = [m for key, m in list(sys.modules.items())
                  if key == "dworkgm" or key.startswith("dworkgm.")]
        undo = []
        try:
            for layer, owner, attr, short in TRACED:
                module = getattr(mods, layer)
                name = f"{layer}.{short}"
                if owner is not None:
                    cls = getattr(module, owner)
                    original = cls.__dict__[attr]
                    setattr(cls, attr, self._wrap(name, original))
                    undo.append((cls, attr, original))
                    continue
                original = getattr(module, attr)
                wrapped = self._wrap(name, original)
                for m in loaded:
                    for key, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, key, wrapped)
                            undo.append((m, key, original))
            yield self
        finally:
            for obj, attr, original in reversed(undo):
                setattr(obj, attr, original)

    def summarize(self, lo: int, hi: int) -> dict[str, float]:
        """Per-layer totals of the spans recorded in [lo, hi)."""
        child = [0.0] * (hi - lo)
        for name, start, end, parent, _ in self.spans[lo:hi]:
            if parent >= lo:
                child[parent - lo] += end - start
        self_s = dict.fromkeys(NAMES, 0.0)
        calls = dict.fromkeys(NAMES, 0)
        covered = 0.0
        for i, (name, start, end, parent, _) in enumerate(self.spans[lo:hi]):
            self_s[name] += end - start - child[i]
            calls[name] += 1
            if parent < 0:
                covered += end - start
        out = {f"{name}.self_s": self_s[name] for name in SELF_S}
        out.update({f"{name}.calls": calls[name] for name in CALLS})
        mod_calls = calls["syzygy.rank_mod"]
        # Two modular ranks per degree, two exact ones when they disagree.
        out["syzygy.certified_frac"] = (
            1 - calls["syzygy.rank_exact"] / mod_calls if mod_calls else 0.0)
        out["covered_s"] = covered
        return out

    def write(self, path: Path) -> None:
        """Dump every span as tab-separated text, CPU times relative to the
        first span's start."""
        t0 = self.spans[0][1] if self.spans else 0.0
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            fh.write("op\tname\tstart_s\tend_s\tparent\n")
            for name, start, end, parent, op in self.spans:
                fh.write(f"{op}\t{name}\t{start - t0:.7f}\t{end - t0:.7f}\t{parent}\n")
