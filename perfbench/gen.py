"""Seeded benchmark inputs: corpus queries, per-universe packs, samples.

The corpus (the seven projects of Table 1) is deterministic, so the
expensive part -- synthesising the projects, extracting the four query
families and building one pack per project -- runs once per source tree
and is kept under ``.perfbench_cache/<digest>/`` in the checkout, outside
any timed region.  Each workload draws its fixed query set with
:func:`sample`; the run's seed then orders or draws the operations.

A query is kept only when its printed text parses back, in the scope the
public API can express (locals plus ``this``), to the same partial
expression; the number dropped is recorded per family.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from typing import Dict, List, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
CACHE_ROOT = os.path.join(ROOT, ".perfbench_cache")
TRACE_DIR = os.path.join(CACHE_ROOT, "traces")

FAMILIES = ("methods", "arguments", "assignments", "comparisons")

#: corpus scale; 1.0 is the evaluation's default corpus
SCALE = 1.0


def source_digest() -> str:
    """Digest of the program sources and this generator: the cache key."""
    digest = hashlib.sha256()
    paths = [os.path.abspath(__file__)]
    for folder, dirs, files in os.walk(os.path.join(SRC, "repro")):
        dirs.sort()
        paths.extend(os.path.join(folder, name) for name in sorted(files)
                     if name.endswith((".py", ".json")))
    for path in paths:
        digest.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as handle:
            digest.update(handle.read())
    return digest.hexdigest()[:16]


def _scope(impl) -> Tuple[Dict[str, str], object]:
    """The query scope as the API spells it: local name -> type full
    name, and the type of ``this`` (``None`` in a static method)."""
    locals_map = {name: typedef.full_name
                  for name, typedef in impl.all_locals().items()}
    this = None if impl.method.is_static else impl.method.declaring_type
    return locals_map, this


def _extract(project) -> Tuple[List[dict], Dict[str, int], Dict[str, int]]:
    """All four query families of one project, round-trip filtered."""
    from repro.analysis.scope import Context
    from repro.engine.completer import EngineConfig
    from repro.eval import queries
    from repro.lang.parser import ParseError, parse
    from repro.lang.printer import to_source

    config = EngineConfig()
    kept: List[dict] = []
    extracted = {family: 0 for family in FAMILIES}
    dropped = {family: 0 for family in FAMILIES}

    def add(family, impl, pe, expect):
        extracted[family] += 1
        locals_map, this = _scope(impl)
        types = dict(impl.all_locals())
        context = Context(project.ts, locals=types, this_type=this)
        text = to_source(pe)
        try:
            same = parse(text, context).key() == pe.key()
        except ParseError:
            same = False
        if not same:
            dropped[family] += 1
            return
        kept.append({
            "project": project.name,
            "family": family,
            "text": text,
            "locals": locals_map,
            "this": this.full_name if this is not None else None,
            "expect": expect,
        })

    for impl, index, call in project.iter_calls():
        method = call.method
        if method.arity >= 2:
            for subset in queries.method_query_subsets(call):
                add("methods", impl, queries.unknown_call_query(subset),
                    {"name": method.name, "arity": method.arity})
        context = impl.context(project.ts)
        for position, arg in enumerate(call.args):
            if queries.is_guessable_argument(arg, context, config):
                add("arguments", impl, queries.argument_query(call, position),
                    {"text": to_source(call)})
    for impl, index, assign in project.iter_assignments():
        for _variant, target, source in queries.ASSIGNMENT_VARIANTS:
            pe = queries.assignment_query(assign, target, source)
            if pe is not None:
                add("assignments", impl, pe, {"text": to_source(assign)})
    for impl, index, compare in project.iter_comparisons():
        for _variant, left, right in queries.COMPARISON_VARIANTS:
            pe = queries.comparison_query(compare, left, right)
            if pe is not None:
                add("comparisons", impl, pe, {"text": to_source(compare)})
    return kept, extracted, dropped


def _generate(folder: str) -> None:
    from repro.corpus.projects import build_all_projects
    from repro.ide.workspace import Workspace
    from repro.pack import build_pack

    projects = build_all_projects(scale=SCALE, strict=True)
    corpus: List[dict] = []
    extracted = {family: 0 for family in FAMILIES}
    dropped = {family: 0 for family in FAMILIES}
    packs: Dict[str, str] = {}
    for number, project in enumerate(projects):
        kept, got, lost = _extract(project)
        corpus.extend(kept)
        for family in FAMILIES:
            extracted[family] += got[family]
            dropped[family] += lost[family]
        # one pack per universe, named after its project: packs built
        # from a bare TypeSystem would all be called "workspace"
        file_name = "universe{}.pack".format(number)
        build_pack(Workspace(project.ts, name=project.name),
                   os.path.join(folder, file_name))
        packs[project.name] = file_name
    document = {"scale": SCALE, "packs": packs, "extracted": extracted,
                "dropped": dropped, "queries": corpus}
    with open(os.path.join(folder, "queries.json"), "w") as handle:
        json.dump(document, handle, sort_keys=True)


def corpus_inputs() -> dict:
    """The extracted corpus queries and pack paths, generating them on the
    first call for this source tree."""
    folder = os.path.join(CACHE_ROOT, source_digest())
    path = os.path.join(folder, "queries.json")
    if not os.path.exists(path):
        staging = folder + ".tmp{}".format(os.getpid())
        os.makedirs(staging, exist_ok=True)
        _generate(staging)
        os.replace(staging, folder)
    with open(path) as handle:
        document = json.load(handle)
    document["packs"] = {name: os.path.join(folder, file_name)
                         for name, file_name in document["packs"].items()}
    return document


def sample(corpus: List[dict], per_family: Dict[str, int],
           tag: str) -> List[dict]:
    """A family-stratified sample, in an order, both drawn from ``tag``.

    Each family contributes a fixed count, spread over the projects in
    proportion to their query counts.
    """
    rng = random.Random(tag)
    by_family: Dict[str, Dict[str, List[dict]]] = {}
    for query in corpus:
        by_family.setdefault(query["family"], {}).setdefault(
            query["project"], []).append(query)
    chosen: List[dict] = []
    for family in FAMILIES:
        wanted = per_family.get(family, 0)
        projects = by_family.get(family, {})
        total = sum(len(pool) for pool in projects.values())
        if wanted <= 0 or total == 0:
            continue
        names = sorted(projects)
        quotas = {name: wanted * len(projects[name]) // total
                  for name in names}
        # hand the rounding remainder to the largest pools
        for name in sorted(names, key=lambda n: -len(projects[n])):
            if sum(quotas.values()) >= wanted:
                break
            quotas[name] += 1
        for name in names:
            pool = projects[name]
            chosen.extend(rng.sample(pool, min(quotas[name], len(pool))))
    rng.shuffle(chosen)
    return chosen
