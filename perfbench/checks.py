"""Answer checks."""

from __future__ import annotations

from typing import Iterable, Optional


def expected_hit(query: dict, texts: Iterable[str],
                 exprs: Optional[Iterable[object]] = None) -> bool:
    """Is the query's original corpus expression among the answers?

    Lookup and argument queries match by printed text.  A ``?({..})``
    query matches a completion calling a method with the original
    method's name and arity, which needs the completion expressions.
    """
    expect = query["expect"]
    if "text" in expect:
        return expect["text"] in texts
    for expr in exprs or ():
        method = getattr(expr, "method", None)
        if (method is not None and method.name == expect["name"]
                and method.arity == expect["arity"]):
            return True
    return False


def well_typed_all(exprs: Iterable[object], ts) -> bool:
    """Every completion is a well-typed expression of the paper's
    Figure 6 semantics."""
    from repro.lang.semantics import well_typed

    return all(well_typed(expr, ts) for expr in exprs)
