"""Span tracing from outside hga, and the per-layer metrics derived from it.

``Tracer.install()`` wraps a fixed list of public names of each hga module.
Every alias of a wrapped function in the ``hga.*`` module namespaces is
rebound (``axioms``, ``typea`` and ``reduction`` import ``build_algebra`` and
``idempotent_subalgebra`` by name), and ``SparseRREF`` methods are patched on
the class.  A listed name that no longer exists is skipped; its metrics then
read 0.  Each wrapped call records a span (name, start, end, parent span, job
id) in memory; ``write()`` stores them when the run ends.

Definitions used by ``metrics()``:

- *calls* of a layer: its outermost spans, i.e. entries into the layer
  while no call of it is active; *calls* of a name: every call of it.
- *busy*: the summed duration of the outermost spans (no ancestor of the
  same layer, or of the same name).
- *self*: busy minus the time covered by spans of other layers (for a name:
  of any other wrapped name) inside those outermost spans.
"""

import functools
import gzip
import json
import sys
import time

# layer -> hga modules it is made of
LAYERS = {
    "linalg": ("linalg",),
    "algebras": ("algebras", "presentations"),
    "reps": ("reps",),
    "typea": ("typea",),
    "cluster": ("cluster",),
    "axioms": ("axioms",),
    "reduction": ("reduction",),
    "cli": ("cli",),
}

# module -> public names wrapped.  Tiny, very hot helpers (transpose, zeros,
# mat_add, reps.mmul, Algebra methods) are left out: wrapping them would cost
# more than they do, and their time shows as the caller layer's self time.
# ``axioms.built`` is left out too: it only memoises ``build_algebra`` on a
# presentation (the CLI loads every algebra through it), so its work is
# traced as ``algebras.build_algebra`` and not as certificate work.
WRAPPED = {
    "linalg": ("rref", "rank", "nullspace", "row_space_basis", "solve",
               "invert", "in_span", "reduce_mod_rows", "mat_mul", "mat_vec",
               "SparseRREF.add", "SparseRREF.reduce"),
    "presentations": ("presentation_to_dict", "presentation_from_dict",
                      "presentation_to_dot"),
    "algebras": ("build_algebra", "minimal_presentation",
                 "idempotent_subalgebra", "quotient_by_idempotent",
                 "opposite", "represent", "from_raw_element",
                 "quotient_class"),
    "reps": ("projective", "simple", "injective", "dual", "direct_sum",
             "hom_basis", "hom_dim", "kernel", "cokernel", "image",
             "sub_representation", "radical_vectors", "projective_cover",
             "syzygy", "minimal_resolution", "ext_dim", "proj_dim",
             "is_isomorphic", "factor_through", "presentation_matrix",
             "transpose", "translate", "ar_translate",
             "ar_translate_inverse", "higher_translate",
             "higher_translate_inverse", "cosyzygy", "decompose_indecomposables",
             "regular_module", "homological_dims",
             "is_gorenstein_projective", "right_mult_morphism"),
    "typea": ("tuple_set", "intertwines", "maximal_nonintertwining",
              "build_typeA_auslander", "canonical_cluster_tilting"),
    "cluster": ("is_d_rigid", "is_d_tilting", "cluster_endo_algebra",
                "ctgent_family", "ctgent_cover"),
    "axioms": ("strong_neighbors", "find_m_cubes",
               "commutativity_squares", "find_sandwiches", "check_axiom_a4",
               "check_axioms", "is_pre_gentle", "is_gentle",
               "is_d_gentle_certificate"),
    "reduction": ("restrict_to_quotient", "ambient_from_quotient",
                  "corner_column_module", "find_injection",
                  "is_fabric_idempotent", "chensing_conditions",
                  "localisable_report", "reduction_step", "reduce_to_gentle",
                  "gentle_sg_invariant", "verify_sg_example"),
    "cli": ("main",),
}

LAYER_OF = {mod: layer for layer, mods in LAYERS.items() for mod in mods}


def _rows_at_entry(args, kwargs):
    return len(args[0].rows)


def _input_cells(args, kwargs):
    m = args[0] if args else kwargs["m"]
    return len(m) * (len(m[0]) if m else 0)


# span name -> amount recorded with the span, from the arguments at entry
AT_ENTRY = {
    "linalg.SparseRREF.add": _rows_at_entry,
    "linalg.rref": _input_cells,
}
# span name -> amount recorded with the span, from the result
AT_EXIT = {
    "algebras.build_algebra": lambda result: result.dim,
    "reps.is_isomorphic": lambda result: 1 if result else 0,
    "cluster.is_d_rigid": lambda result: 1 if result else 0,
    "reduction.find_injection": lambda result: 0 if result is None else 1,
}

# metric prefix -> span name
NAMED = {
    "linalg.sparse_add": "linalg.SparseRREF.add",
    "linalg.rref": "linalg.rref",
    "algebras.build": "algebras.build_algebra",
    "algebras.corner": "algebras.idempotent_subalgebra",
    "reps.direct_sum": "reps.direct_sum",
    "reps.hom_basis": "reps.hom_basis",
    "reps.projective_cover": "reps.projective_cover",
    "reps.homological_dims": "reps.homological_dims",
    "reps.decompose": "reps.decompose_indecomposables",
    "reps.is_isomorphic": "reps.is_isomorphic",
    "typea.ct_family": "typea.canonical_cluster_tilting",
    "cluster.endo": "cluster.cluster_endo_algebra",
    "cluster.is_d_rigid": "cluster.is_d_rigid",
    "axioms.certificate": "axioms.is_d_gentle_certificate",
    "axioms.check_axioms": "axioms.check_axioms",
    "axioms.sandwich": "axioms.find_sandwiches",
    "reduction.step": "reduction.reduction_step",
    "reduction.find_injection": "reduction.find_injection",
}

# per-name metrics: (metric, statistic, unit); the prefix names a NAMED span
NAMED_METRICS = [
    ("linalg.sparse_add.calls", "calls", "count"),
    ("linalg.sparse_add.busy_s", "busy", "s"),
    ("linalg.sparse_add.rows_scanned", "amount", "count"),
    ("linalg.rref.calls", "calls", "count"),
    ("linalg.rref.busy_s", "busy", "s"),
    ("linalg.rref.cells", "amount", "count"),
    ("algebras.build.calls", "calls", "count"),
    ("algebras.build.busy_s", "busy", "s"),
    ("algebras.build.basis_dim", "amount", "count"),
    ("algebras.corner.calls", "calls", "count"),
    ("algebras.corner.busy_s", "busy", "s"),
    ("reps.direct_sum.calls", "calls", "count"),
    ("reps.direct_sum.busy_s", "busy", "s"),
    ("reps.hom_basis.calls", "calls", "count"),
    ("reps.projective_cover.calls", "calls", "count"),
    ("reps.homological_dims.busy_s", "busy", "s"),
    ("reps.decompose.busy_s", "busy", "s"),
    ("reps.is_isomorphic.calls", "calls", "count"),
    ("reps.is_isomorphic.true_frac", "frac", "ratio"),
    ("typea.ct_family.busy_s", "busy", "s"),
    ("cluster.endo.busy_s", "busy", "s"),
    ("cluster.is_d_rigid.calls", "calls", "count"),
    ("cluster.is_d_rigid.true_frac", "frac", "ratio"),
    ("axioms.certificate.calls", "calls", "count"),
    ("axioms.certificate.busy_s", "busy", "s"),
    ("axioms.certificate.self_s", "self", "s"),
    ("axioms.check_axioms.calls", "calls", "count"),
    ("axioms.check_axioms.busy_s", "busy", "s"),
    ("axioms.sandwich.busy_s", "busy", "s"),
    ("reduction.step.calls", "calls", "count"),
    ("reduction.find_injection.calls", "calls", "count"),
    ("reduction.find_injection.found_frac", "frac", "ratio"),
]


def _per_layer():
    """Every per-layer metric, in report order: name -> (unit, source)."""
    out = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = ("count", ("layer", layer, "calls"))
        out[f"{layer}.busy_s"] = ("s", ("layer", layer, "busy"))
        out[f"{layer}.self_s"] = ("s", ("layer", layer, "self"))
    for metric, stat, unit in NAMED_METRICS:
        out[metric] = (unit, ("name", NAMED[metric.rsplit(".", 1)[0]], stat))
    out["trace.wall_s"] = ("s", ("run", "traced_wall"))
    out["trace_overhead_frac"] = ("ratio", ("run", "overhead"))
    return out


PER_LAYER = _per_layer()


class Tracer:
    """Records spans of wrapped hga calls; single-threaded by design."""

    def __init__(self):
        self.names = []          # span name per span id
        self.layers = []         # layer per span id
        self.parents = []        # parent span id, -1 at the top
        self.jobs = []           # job id per span id
        self.starts = []
        self.ends = []
        self.amounts = []
        self.stack = []
        self.job = None
        self.installed = []      # (owner, attribute, original)

    def _wrap(self, name, layer, fn):
        at_entry = AT_ENTRY.get(name)
        at_exit = AT_EXIT.get(name)
        names, layers, parents, jobs = (self.names, self.layers,
                                        self.parents, self.jobs)
        starts, ends, amounts, stack = (self.starts, self.ends, self.amounts,
                                        self.stack)
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(names)
            names.append(name)
            layers.append(layer)
            parents.append(stack[-1] if stack else -1)
            jobs.append(tracer.job)
            ends.append(None)
            amounts.append(at_entry(args, kwargs) if at_entry else 0)
            stack.append(sid)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                stack.pop()
            if at_exit is not None:
                amounts[sid] = at_exit(result)
            return result

        return wrapper

    def install(self):
        """Wrap every listed name that exists; rebind all hga aliases."""
        replace = {}             # id(original) -> wrapper
        for mod_name, attrs in WRAPPED.items():
            mod = sys.modules.get(f"hga.{mod_name}")
            if mod is None:
                continue
            layer = LAYER_OF[mod_name]
            for attr in attrs:
                owner, _, leaf = attr.rpartition(".")
                target = getattr(mod, owner, None) if owner else mod
                fn = getattr(target, leaf, None) if target is not None else None
                if fn is None or not callable(fn):
                    continue
                wrapper = self._wrap(f"{layer}.{attr}", layer, fn)
                if owner:        # a method: patch it on the class
                    self.installed.append((target, leaf, fn))
                    setattr(target, leaf, wrapper)
                else:
                    replace[id(fn)] = (fn, wrapper)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "hga" or
                                   mod_name.startswith("hga.")):
                continue
            for attr, value in list(vars(mod).items()):
                hit = replace.get(id(value))
                if hit is not None and hit[0] is value:
                    self.installed.append((mod, attr, value))
                    setattr(mod, attr, hit[1])

    def uninstall(self):
        for owner, attr, original in reversed(self.installed):
            setattr(owner, attr, original)
        self.installed.clear()

    def write(self, path):
        """Store the spans as gzipped JSON lines, one span per line."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            for sid in range(len(self.names)):
                fh.write(json.dumps([sid, self.names[sid], self.parents[sid],
                                     self.jobs[sid], self.starts[sid],
                                     self.ends[sid], self.amounts[sid]]))
                fh.write("\n")

    def stats(self):
        """Per layer and per span name: calls, busy, self, amount."""
        layer_stats = {layer: {"calls": 0, "busy": 0.0, "covered": 0.0}
                       for layer in LAYERS}
        name_stats = {}
        # compressed chains of layers / names from the top down to each span:
        # consecutive repeats are merged, so "X appears only last" means
        # every span between the outermost X and here is X
        layer_chain, name_chain = [], []
        for sid, name in enumerate(self.names):
            layer = self.layers[sid]
            parent = self.parents[sid]
            dur = self.ends[sid] - self.starts[sid]
            lc = layer_chain[parent] if parent >= 0 else ()
            nc = name_chain[parent] if parent >= 0 else ()
            ns = name_stats.setdefault(
                name, {"calls": 0, "busy": 0.0, "covered": 0.0, "amount": 0})
            ns["calls"] += 1
            ns["amount"] += self.amounts[sid]
            ls = layer_stats[layer]
            if not lc or lc[-1] != layer:
                if layer not in lc:
                    ls["calls"] += 1
                    ls["busy"] += dur
                if lc and lc.index(lc[-1]) == len(lc) - 1:
                    layer_stats[lc[-1]]["covered"] += dur
                lc = lc + (layer,)
            if not nc or nc[-1] != name:
                if name not in nc:
                    ns["busy"] += dur
                if nc and nc.index(nc[-1]) == len(nc) - 1:
                    name_stats[nc[-1]]["covered"] += dur
                nc = nc + (name,)
            layer_chain.append(lc)
            name_chain.append(nc)
        for st in list(layer_stats.values()) + list(name_stats.values()):
            st["self"] = st["busy"] - st.pop("covered")
        return layer_stats, name_stats

    def metrics(self, run):
        """Every per-layer metric; ``run`` holds traced_wall and overhead."""
        layer_stats, name_stats = self.stats()
        empty = {"calls": 0, "busy": 0.0, "self": 0.0, "amount": 0}
        out = {}
        for metric, (unit, source) in PER_LAYER.items():
            kind = source[0]
            if kind == "layer":
                value = layer_stats[source[1]][source[2]]
            elif kind == "name":
                st = name_stats.get(source[1], empty)
                if source[2] == "frac":
                    value = st["amount"] / st["calls"] if st["calls"] else 0.0
                else:
                    value = st[source[2]]
            else:
                value = run[source[1]]
            out[metric] = {"value": value, "unit": unit}
        return out
