"""Spans around the public functions of each leibrack module (the layers).

The tracer patches every namespace that binds a listed function: module
attributes, module-level dicts (``cli.HANDLERS``) and, for methods, the
class.  ``exp_endo``, ``derivation_algebra``, ``build_extension`` and others
are imported by value into ``quantize``, ``cocycle`` and ``cli``, so patching
only the defining module would miss most calls.  ``restore`` puts every original back.

A span records its name, start, end, parent span and op id, plus the
seconds the tracer itself spent on the call outside [start, end]: span
bookkeeping and the counters (``count``).  That work runs while the parent
span is open, so it is taken out of the parent's self time and reported as
its own total.  Spans stay in memory (compact arrays) and are written once,
by ``write_spans``, when the run ends.  Self time, counts, operation counts,
bit lengths and the two ratios are derived from the spans and the counters
kept at the same boundaries.
"""

import json
import sys
from array import array
from fractions import Fraction
from time import perf_counter

# (span name, module, class or None, attribute)
TARGETS = [
    ("algebra.bracket_coords", "leibrack.algebra", "LeibnizAlgebra", "bracket_coords"),
    ("algebra.bracket", "leibrack.algebra", "LeibnizAlgebra", "bracket"),
    ("algebra.ad", "leibrack.algebra", "LeibnizAlgebra", "ad"),
    ("algebra.leibniz_violations", "leibrack.algebra", "LeibnizAlgebra", "leibniz_violations"),
    ("algebra.nilpotency_class", "leibrack.algebra", "LeibnizAlgebra", "nilpotency_class"),
    ("algebra.left_center", "leibrack.algebra", None, "left_center"),
    ("algebra.derivation_algebra", "leibrack.algebra", None, "derivation_algebra"),
    ("extension.build_extension", "leibrack.extension", None, "build_extension"),
    ("extension.cocycle_identity_violations", "leibrack.extension", None,
     "cocycle_identity_violations"),
    ("extension.reconstruction_violations", "leibrack.extension", None,
     "reconstruction_violations"),
    ("extension.projection_morphism_violations", "leibrack.extension", None,
     "projection_morphism_violations"),
    ("linalg.rref", "leibrack.linalg", None, "rref"),
    ("linalg.nullspace", "leibrack.linalg", None, "nullspace"),
    ("linalg.det", "leibrack.linalg", None, "det"),
    ("linalg.inverse", "leibrack.linalg", None, "inverse"),
    ("linalg.mat_mul", "leibrack.linalg", None, "mat_mul"),
    ("linalg.mat_vec", "leibrack.linalg", None, "mat_vec"),
    ("racks.exp_endo", "leibrack.racks", None, "exp_endo"),
    ("racks.bass_product", "leibrack.racks", None, "bass_product"),
    ("racks.coadjoint", "leibrack.racks", None, "coadjoint"),
    ("bch.log_word_table", "leibrack.bch", None, "log_word_table"),
    ("bch.evaluate_word_table", "leibrack.bch", None, "evaluate_word_table"),
    ("cocycle.rack_cocycle_exact", "leibrack.cocycle", None, "rack_cocycle_exact"),
    ("cocycle.rack_cocycle_series", "leibrack.cocycle", None, "rack_cocycle_series"),
    ("quantize.quantum_rack_action", "leibrack.quantize", None, "quantum_rack_action"),
    ("quantize.poisson_bracket", "leibrack.quantize", None, "poisson_bracket"),
    ("quantize.hessian_check", "leibrack.quantize", None, "hessian_check"),
    ("observables.poly_mul", "leibrack.observables", "PolyObservable", "__mul__"),
    ("observables.substitute_linear", "leibrack.observables", "PolyObservable",
     "substitute_linear"),
    ("tangent.tangent_recover", "leibrack.tangent", None, "tangent_recover"),
    ("sampling.rational_vector", "leibrack.sampling", None, "rational_vector"),
    ("sampling.sample_elements", "leibrack.sampling", None, "sample_elements"),
    ("sampling.sample_triples", "leibrack.sampling", None, "sample_triples"),
    ("sampling.sample_observables", "leibrack.sampling", None, "sample_observables"),
    ("io.load_algebra", "leibrack.io", None, "load_algebra"),
    ("cli.emit", "leibrack.cli", None, "emit"),
] + [
    (f"cli.{command}", "leibrack.cli", None, f"cmd_{command}")
    for command in ("validate", "analyze", "rack", "bch", "cocycle", "quantize",
                    "hessian", "tangent")
]

# exp_endo gets one span name per scalar mode, chosen from its argument.
EXP_MODES = ("racks.exp_endo.exact", "racks.exp_endo.float")
BITS_SCANNED = {"linalg.rref", "linalg.nullspace", "linalg.det", "linalg.inverse",
                "linalg.mat_mul", "linalg.mat_vec", "racks.exp_endo.exact",
                "algebra.bracket_coords", "io.load_algebra"}
NO_PARENT = -1


def max_bits(value):
    """Peak bit length of the numerators and denominators held in ``value``.

    Float vectors and matrices count as 0 bits without a scan.
    """
    if isinstance(value, Fraction):
        return max(value.numerator.bit_length(), value.denominator.bit_length())
    if isinstance(value, int):
        return value.bit_length()
    if isinstance(value, (list, tuple)):
        if value and isinstance(value[0], float):
            return 0
        return max((max_bits(v) for v in value), default=0)
    for attr in ("matrix", "coords", "table"):
        inner = getattr(value, attr, None)
        if inner is not None:
            return max_bits(inner)
    return 0


class Tracer:
    def __init__(self):
        self.names = [name for name, *_ in TARGETS if name != "racks.exp_endo"]
        self.names += list(EXP_MODES)
        self.index = {name: i for i, name in enumerate(self.names)}
        self.name_id = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.tracer_s = array("d")
        self.stack = [NO_PARENT]
        self.op_id = -1
        self.mat_mul_ops = 0
        self.bits = {}
        self.bracket_coords_zero = 0
        self.word_depth = 0
        self.word_brackets = 0
        self.word_brackets_nonzero = 0
        self._patched = []

    # -- spans -----------------------------------------------------------------

    def call(self, name, fn, args, kwargs):
        t_enter = perf_counter()
        sid = len(self.start)
        self.name_id.append(self.index[name])
        self.parent.append(self.stack[-1])
        self.op.append(self.op_id)
        self.start.append(0.0)
        self.end.append(0.0)
        self.tracer_s.append(0.0)
        self.stack.append(sid)
        in_words = name == "bch.evaluate_word_table"
        self.word_depth += in_words
        t0 = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            self.stack.pop()
            self.word_depth -= in_words
            self.start[sid] = t0
            self.end[sid] = t1
        self.count(name, args, result)
        self.tracer_s[sid] = (t0 - t_enter) + (perf_counter() - t1)
        return result

    def count(self, name, args, result):
        if name == "linalg.mat_mul":
            a, b = args[0], args[1]
            self.mat_mul_ops += len(a) * len(b) * (len(b[0]) if b else 0)
        elif name == "algebra.bracket_coords":
            if not any(result):
                self.bracket_coords_zero += 1
        elif name == "algebra.bracket" and self.word_depth:
            self.word_brackets += 1
            if any(result.coords):
                self.word_brackets_nonzero += 1
        if name in BITS_SCANNED:
            scanned = result[0] if name == "linalg.rref" else result
            self.bits[name] = max(self.bits.get(name, 0), max_bits(scanned))

    def wrap(self, name, fn):
        tracer = self
        if name == "racks.exp_endo":
            def wrapper(endo, *args, **kwargs):
                mode_name = EXP_MODES[0] if endo.mode == "exact" else EXP_MODES[1]
                return tracer.call(mode_name, fn, (endo,) + args, kwargs)
        else:
            def wrapper(*args, **kwargs):
                return tracer.call(name, fn, args, kwargs)
        return wrapper

    # -- patching --------------------------------------------------------------

    def install(self):
        modules = [m for key, m in sys.modules.items()
                   if key == "leibrack" or key.startswith("leibrack.")]
        for name, module_name, class_name, attr in TARGETS:
            module = sys.modules[module_name]
            if class_name is not None:
                cls = getattr(module, class_name)
                original = cls.__dict__[attr]
                self._set(cls, attr, self.wrap(name, original), original)
                continue
            original = getattr(module, attr)
            wrapper = self.wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, wrapper, original)
                    elif isinstance(value, dict):
                        for dkey, dvalue in value.items():
                            if dvalue is original:
                                value[dkey] = wrapper
                                self._patched.append((value, dkey, original))

    def _set(self, owner, key, wrapper, original):
        setattr(owner, key, wrapper)
        self._patched.append((owner, key, original))

    def restore(self):
        for owner, key, original in reversed(self._patched):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._patched.clear()

    # -- derived numbers ---------------------------------------------------------

    def summary(self):
        """Per-span-name calls, inclusive and self seconds, from the spans.

        A parent's self time excludes its children's spans and the tracer's
        own work on them.
        """
        n_names = len(self.names)
        calls = [0] * n_names
        total = [0.0] * n_names
        child = [0.0] * len(self.start)
        for sid in range(len(self.start)):
            parent = self.parent[sid]
            if parent != NO_PARENT:
                child[parent] += self.end[sid] - self.start[sid] + self.tracer_s[sid]
        self_s = [0.0] * n_names
        for sid in range(len(self.start)):
            i = self.name_id[sid]
            dur = self.end[sid] - self.start[sid]
            calls[i] += 1
            total[i] += dur
            self_s[i] += dur - child[sid]
        return {
            name: {"calls": calls[i], "total_s": total[i], "self_s": self_s[i]}
            for i, name in enumerate(self.names)
        }

    def tracer_in_ops_s(self):
        """Seconds the tracer spent on its own work during the ops."""
        return sum(self.tracer_s[i] for i in range(len(self.start)) if self.op[i] >= 0)

    def spans_in_ops_s(self):
        """Seconds of the ops inside top-level spans, the tracer's work on them included.

        This is the sum of every in-op span's self time and tracer time.
        """
        return sum(self.end[i] - self.start[i] + self.tracer_s[i]
                   for i in range(len(self.start))
                   if self.parent[i] == NO_PARENT and self.op[i] >= 0)

    def write_spans(self, path):
        """One JSON header line, then the six span arrays as raw machine data."""
        header = {
            "names": self.names,
            "count": len(self.start),
            "arrays": [["name_id", "i"], ["parent", "i"], ["op", "i"],
                       ["start", "d"], ["end", "d"], ["tracer_s", "d"]],
        }
        with open(path, "wb") as handle:
            handle.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name_id, self.parent, self.op, self.start, self.end,
                        self.tracer_s):
                arr.tofile(handle)
