"""Resilience rules (RES4xx), scoped to ``resilience_modules``.

The serving and store tiers are the layers that *must not* fail silently:
a swallowed exception there turns a shard fault, a corrupt artifact or a
dead worker into a quietly wrong (or quietly missing) answer.  The
resilience contract is that every error either propagates, is recorded in
the serving stats, or is degraded *loudly* through the fallback
path — so handlers that catch everything and do nothing are exactly what
this family flags.  Legitimate cases (a caller that cancelled its own
future, best-effort cleanup) carry a suppression with the reason spelled
out, same as DET/NUM/LCK.
"""

from __future__ import annotations

import ast

from repro.analysis.core import FileContext, Rule, dotted_name


def _swallows(body: list[ast.stmt]) -> bool:
    """Whether a handler body does nothing: only ``pass`` / ``...``."""
    return all(
        isinstance(stmt, ast.Pass)
        or (
            isinstance(stmt, ast.Expr)
            and isinstance(stmt.value, ast.Constant)
            and stmt.value.value is Ellipsis
        )
        for stmt in body
    )


def _catches_everything(handler: ast.ExceptHandler) -> bool:
    """Whether *handler* catches ``Exception``/``BaseException`` (or all)."""
    if handler.type is None:
        return True
    names = (
        [dotted_name(element) for element in handler.type.elts]
        if isinstance(handler.type, ast.Tuple)
        else [dotted_name(handler.type)]
    )
    return any(
        name.split(".")[-1] in ("Exception", "BaseException") for name in names
    )


class _ResilienceModuleRule(Rule):
    """Shared scoping: run only over ``resilience_modules`` files."""

    def applies_to(self, context: FileContext) -> bool:
        config = context.config
        modules = config.resilience_modules if config is not None else ()
        return context.module_in(modules)


class BareExceptRule(_ResilienceModuleRule):
    """RES401: a bare ``except:`` clause in a resilience-critical module.

    ``except:`` catches ``SystemExit``/``KeyboardInterrupt`` too, so a
    worker asked to die keeps serving and a chaos kill never lands.  Name
    the exceptions the handler can actually recover from — at minimum
    ``except Exception``.
    """

    rule_id = "RES401"
    family = "resilience"
    description = "bare except clause in a serving/store module"
    rationale = (
        "a bare except also swallows SystemExit and KeyboardInterrupt, so "
        "shutdown and chaos kills silently stop working in the exact tier "
        "whose failure handling is under test"
    )

    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        if node.type is None:
            self.report(
                node,
                "bare `except:` catches SystemExit/KeyboardInterrupt; name "
                "the recoverable exceptions (at minimum `except Exception`)",
            )
        self.generic_visit(node)


class SwallowedErrorRule(_ResilienceModuleRule):
    """RES402: catch-everything handler whose body is only ``pass``.

    ``except Exception: pass`` in serving/store code erases the evidence a
    fault ever happened — nothing reaches the stats, the rescue leg, or
    the caller.  Handle it, record it, or re-raise; genuinely-ignorable
    cases (the caller cancelled its future) must say so in a suppression.
    Handlers for *specific* exceptions (``except OSError: pass`` around
    best-effort cleanup) are out of scope — they name what they forgive.
    """

    rule_id = "RES402"
    family = "resilience"
    description = "catch-all exception handler that swallows the error"
    rationale = (
        "an error swallowed in the serving/store tier turns a shard fault "
        "or corrupt artifact into a silent wrong answer; every error must "
        "propagate, be recorded, or degrade loudly"
    )

    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        if (
            node.type is not None  # bare except is RES401's finding
            and _catches_everything(node)
            and _swallows(node.body)
        ):
            self.report(
                node,
                "`except Exception: pass` swallows every error silently; "
                "record it, re-raise, or suppress with the reason it is "
                "safe to ignore",
            )
        self.generic_visit(node)


RULES = (BareExceptRule, SwallowedErrorRule)
