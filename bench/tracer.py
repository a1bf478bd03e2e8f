"""Per-layer tracing from outside the package.

`Tracer.install()` replaces chosen functions and methods of the imported
`homlie2` modules with wrappers: every module binding that holds the
function (so `from .x import f` copies are caught too) and the class
attribute for methods.  Each wrapper times its call in process CPU time,
keeps a stack so that a layer's self time excludes the wrapped calls made
inside it, and counts calls.  `LawChecker.scan` is wrapped per subject and
law, and counts the (witness, ok) pairs each scan consumes.

Spans (name, start, end, parent) are kept in memory for the layers above
the arithmetic leaves; leaf calls (matrix-vector products, tensor
evaluations, determinants) are too many to keep one by one and are counted
and timed in aggregate only.  `uninstall` restores every binding.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict

import oracles

# (module, attribute or Class.method, layer, kept as spans)
TARGETS = [
    ("exactlin", "rank_and_kernel", "exactlin.elim", True),
    ("exactlin", "solve_linear", "exactlin.elim", True),
    ("exactlin", "inverse", "exactlin.elim", True),
    ("exactlin", "det_of", "exactlin.det", False),
    ("exactlin", "Matrix.apply", "exactlin.apply", False),
    ("exactlin", "Matrix.__mul__", "exactlin.matmul", False),
    ("cohomology", "hom_cochain_basis", "cohomology.basis", True),
    ("cohomology", "coboundary", "cohomology.coboundary", True),
    ("cohomology", "is_hom_cochain", "cohomology.hom_cochain_test", False),
    ("cohomology", "Cochain.evaluate", "cohomology.evaluate", False),
    ("homlie", "bilinear_eval", "homlie.bilinear", False),
    ("homlie", "check_hom_lie", "homlie.check", True),
    ("hl2", "trilinear_eval", "hl2.trilinear", False),
    ("hl2", "check_two_term", "hl2.check_two_term", True),
    ("hl2", "check_hom_lie2", "hl2.check_hom_lie2", True),
    ("hl2", "roundtrip_check", "hl2.roundtrip", True),
    ("hl2", "functor_T", "hl2.functor", True),
    ("hl2", "functor_S", "hl2.functor", True),
    ("twovect", "from_complex", "twovect.from_complex", True),
    ("constructions", "string_from_semisimple", "constructions.string", True),
    ("constructions", "strict_to_crossed", "constructions.crossed", True),
    ("constructions", "crossed_to_strict", "constructions.crossed", True),
    ("constructions", "check_crossed_module", "constructions.crossed", True),
    ("constructions", "check_left_symmetric", "constructions.leftsym", True),
    ("constructions", "leftsym_d_report", "constructions.leftsym", True),
    ("constructions", "strict_from_leftsym", "constructions.leftsym", True),
    ("modelfile", "parse_model", "modelfile.parse", True),
    ("modelfile", "serialize_model", "modelfile.serialize", True),
    ("cli", "main", "cli.command", True),
]

TWO_TERM_LAWS = tuple(oracles.two_term_cases(1, 1))
HOM_LIE2_LAWS = tuple(oracles.hom_lie2_cases(1, 1))
OTHER_SUBJECTS = ("hom_lie", "hom_lie_morphism", "representation", "crossed_module",
                  "left_symmetric", "quadratic", "roundtrip", "hl_morphism")

# checks whose scans on a passing input must consume exactly the formula's cases
CASE_FORMULAS = {
    "hl2.check_two_term": ("two_term_hl", lambda v: oracles.two_term_cases(v.dim0, v.dim1)),
    "hl2.check_hom_lie2": ("hom_lie2",
                           lambda L: oracles.hom_lie2_cases(L.tvs.dim0, L.tvs.dim1)),
    "homlie.check": ("hom_lie", lambda g: oracles.hom_lie_cases(g.dim)),
}


def law_key(law: str) -> str:
    return law.strip("()")


def per_layer_names() -> list[tuple[str, str]]:
    """Every per-layer metric the traced run reports, with its unit."""
    out = []
    for layer in ("exactlin.elim", "exactlin.det", "exactlin.apply", "exactlin.matmul",
                  "cohomology.basis", "cohomology.coboundary", "cohomology.hom_cochain_test",
                  "cohomology.evaluate", "homlie.bilinear", "homlie.check", "hl2.trilinear",
                  "twovect.from_complex"):
        out.append((layer + "_calls", "count"))
        if layer == "exactlin.elim":
            out.append(("exactlin.elim_cells", "count"))
        out.append((layer + "_s", "s"))
    for layer in ("hl2.check_two_term", "hl2.check_hom_lie2", "hl2.roundtrip", "hl2.functor",
                  "constructions.string", "constructions.crossed", "constructions.leftsym"):
        out.append((layer + "_s", "s"))
    for subject, laws in (("two_term_hl", TWO_TERM_LAWS), ("hom_lie2", HOM_LIE2_LAWS)):
        for law in laws:
            out.append((f"reports.{subject}.{law_key(law)}.cases", "count"))
            out.append((f"reports.{subject}.{law_key(law)}.s", "s"))
    for subject in OTHER_SUBJECTS:
        out.append((f"reports.{subject}.cases", "count"))
        out.append((f"reports.{subject}.s", "s"))
    out += [("modelfile.parse_s", "s"), ("modelfile.parse_bytes", "bytes"),
            ("modelfile.serialize_s", "s"), ("modelfile.serialize_bytes", "bytes"),
            ("cli.import_s", "s"), ("cli.command_s", "s"), ("trace.overhead_s", "s")]
    return out


class Tracer:
    def __init__(self):
        self.clock = time.process_time
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.total_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()   # cells, cases, bytes
        self.spans: list = []
        self.keep_spans = False
        self.case_errors: list[str] = []
        self._stack: list = []             # [start, child_time, span_index]
        self._contexts: list = []          # scans seen inside a formula-checked call
        self._patches: list = []

    # -- recording -----------------------------------------------------------

    def reset_round(self):
        self.calls.clear()
        self.self_s.clear()
        self.total_s.clear()
        self.counts.clear()

    def _enter(self, name, keep):
        start = self.clock()
        span = None
        if keep and self.keep_spans:
            parent = next((f[2] for f in reversed(self._stack) if f[2] is not None), None)
            span = len(self.spans)
            self.spans.append([name, start, None, parent])
        frame = [start, 0.0, span]
        self._stack.append(frame)
        return frame

    def _exit(self, name, frame):
        self._stack.pop()
        end = self.clock()
        dur = end - frame[0]
        self.self_s[name] += dur - frame[1]
        self.total_s[name] += dur
        self.calls[name] += 1
        if self._stack:
            self._stack[-1][1] += dur
        if frame[2] is not None:
            self.spans[frame[2]][2] = end

    def _wrap(self, name, fn, keep):
        tracer = self
        formula = CASE_FORMULAS.get(name)

        def wrapper(*args, **kwargs):
            frame = tracer._enter(name, keep)
            if formula:
                tracer._contexts.append([])
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(name, frame)
                scans = tracer._contexts.pop() if formula else None
            if formula:
                tracer._check_cases(name, formula, args[0], scans)
            if name == "exactlin.elim":
                tracer.counts["exactlin.elim_cells"] += args[0].rows * args[0].cols
            elif name == "modelfile.parse":
                tracer.counts["modelfile.parse_bytes"] += len(args[0].encode("utf-8"))
            elif name == "modelfile.serialize":
                tracer.counts["modelfile.serialize_bytes"] += len(result.encode("utf-8"))
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _check_cases(self, name, formula, arg, scans):
        subject, fn = formula
        expected = fn(arg)
        for scan_subject, law, cases, passed in scans:
            if scan_subject == subject and passed and cases != expected.get(law, cases):
                self.case_errors.append(f"{subject} {law}: {cases} cases, "
                                        f"dimensions give {expected[law]}")

    def _wrap_scan(self, scan):
        tracer = self

        def wrapper(checker, law, pairs, note=""):
            name = f"reports.{checker.subject}.{law}"
            consumed = [0]

            def counted():
                for pair in pairs:
                    consumed[0] += 1
                    yield pair

            frame = tracer._enter(name, True)
            try:
                passed = scan(checker, law, counted(), note)
            finally:
                tracer._exit(name, frame)
            tracer.counts[name + ".cases"] += consumed[0]
            if tracer._contexts:
                tracer._contexts[-1].append((checker.subject, law, consumed[0], passed))
            return passed

        wrapper.__wrapped__ = scan
        return wrapper

    # -- installing ----------------------------------------------------------

    def install(self):
        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == "homlie2" or key.startswith("homlie2."))]
        for modname, attr, layer, keep in TARGETS:
            module = sys.modules[f"homlie2.{modname}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                self._set(cls, meth, self._wrap(layer, original, keep))
                continue
            original = getattr(module, attr)
            wrapped = self._wrap(layer, original, keep)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, wrapped)
        checker = sys.modules["homlie2.reports"].LawChecker
        self._set(checker, "scan", self._wrap_scan(checker.__dict__["scan"]))

    def _set(self, owner, key, value):
        original = owner.__dict__[key] if isinstance(owner, type) else getattr(owner, key)
        self._patches.append((owner, key, original))
        setattr(owner, key, value)

    def uninstall(self):
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    # -- reading -------------------------------------------------------------

    def round_values(self) -> dict[str, float]:
        """Per-layer values of the round just traced: counts, and self times
        except cli.command_s, which is the whole in-process command."""
        report_s: defaultdict = defaultdict(float)
        report_cases: Counter = Counter()
        for key, value in self.self_s.items():
            report_s[_report_key(key)] += value
        for key, value in self.counts.items():
            if key.endswith(".cases"):
                report_cases[_report_key(key[:-6])] += value
        values: dict[str, float] = {}
        for name, _ in per_layer_names():
            if name == "cli.command_s":
                values[name] = self.total_s.get("cli.command", 0.0)
            elif name.startswith(("cli.", "trace.")):
                continue
            elif name.startswith("reports."):
                base, _, field = name.rpartition(".")
                values[name] = report_s[base] if field == "s" else report_cases[base]
            elif name.endswith("_calls"):
                values[name] = self.calls[name[:-6]]
            elif name.endswith("_s"):
                values[name] = self.self_s.get(name[:-2], 0.0)
            else:
                values[name] = self.counts[name]
        return values


def _report_key(name: str) -> str | None:
    """'reports.<subject>.<law>' -> the metric base it adds to."""
    if not name.startswith("reports."):
        return None
    _, subject, law = name.split(".", 2)
    if subject in ("two_term_hl", "hom_lie2"):
        return f"reports.{subject}.{law_key(law)}"
    if subject in OTHER_SUBJECTS:
        return f"reports.{subject}"
    return None
