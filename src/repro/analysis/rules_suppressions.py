"""Suppression hygiene: every ``# repro: ignore`` must say why.

An inline suppression is a reviewed exception to a rule, and the
justification *is* the review artifact: later, the ``-- why`` clause is
the only record of whether the exception still holds.  Two forms are
accepted::

    self._served = {}  # repro: ignore[stateful-nf] -- ephemeral radio state
    y = foo()          # repro: ignore -- prototype, see the design note

and three are findings: a bracketed ignore with no ``--`` trailer, a
bare ``# repro: ignore`` with neither rule list nor trailer (which
silences *every* rule on the line with no record of intent), and a
bracketed ignore naming a rule id the registry does not know (a typo,
or a waiver that outlived its rule: it silences nothing).

This rule sets ``suppressible = False``: a hygiene finding cannot be
silenced by the very mechanism it audits.
"""

from __future__ import annotations

import io
import re
import tokenize
from typing import Iterable, Iterator, Tuple

from .core import Finding, ModuleInfo, Rule
from .registry import all_rules, register

#: A suppression *comment* (anchored: the comment must begin with the
#: marker, so prose mentions in ``#:`` doc comments don't count), with
#: optional rule list and trailer.
_SUPPRESSION_RE = re.compile(
    r"^#\s*repro:\s*ignore"
    r"(?:\[(?P<rules>[A-Za-z0-9_\-, ]+)\])?"
    r"(?P<trailer>.*)$")
#: A justification trailer: ``-- <at least a few words of why>``.
_WHY_RE = re.compile(r"^\s*--\s*\S+")


def _comments(module: ModuleInfo) -> Iterator[Tuple[int, str]]:
    """(line, text) of every comment token.  Tokenizing (rather than
    line-scanning) keeps docstring prose that merely *mentions* the
    suppression syntax from registering as a suppression."""
    try:
        tokens = tokenize.generate_tokens(
            io.StringIO(module.source).readline)
        for token in tokens:
            if token.type == tokenize.COMMENT:
                yield token.start[0], token.string
    except (tokenize.TokenError, IndentationError):
        return


@register
class BareSuppressionRule(Rule):
    """Flag suppressions that carry no ``-- why`` justification.

    The defect: a waiver nobody can audit -- no reason, a blanket
    ignore of every rule, or a rule id that no longer exists (a waiver
    that outlived its rule).  Comments never run, so no test sees them.
    """

    id = "bare-suppression"
    suppressible = False

    def check(self, module: ModuleInfo) -> Iterable[Finding]:
        """Yield suppression comments missing rules or justification,
        or naming rules that do not exist."""
        known = {rule.id for rule in all_rules()}
        for lineno, comment in _comments(module):
            match = _SUPPRESSION_RE.match(comment)
            if match is None:
                continue
            rules = match.group("rules")
            has_why = bool(_WHY_RE.match(match.group("trailer")))
            unknown = sorted({r.strip() for r in (rules or "").split(",")
                              if r.strip()} - known)
            if unknown:
                yield Finding(
                    rule=self.id, path=module.relpath, line=lineno,
                    message=(f"suppression names unknown rule id(s) "
                             f"[{', '.join(unknown)}]; it waives "
                             f"nothing -- fix the id or delete the "
                             f"waiver"))
            if rules is None and not has_why:
                yield Finding(
                    rule=self.id, path=module.relpath, line=lineno,
                    message=("bare '# repro: ignore' silences every "
                             "rule on this line with no record of "
                             "which or why; use "
                             "'# repro: ignore[rule] -- <why>'"))
            elif not has_why:
                named = ", ".join(
                    sorted(r.strip() for r in rules.split(",")
                           if r.strip()))
                yield Finding(
                    rule=self.id, path=module.relpath, line=lineno,
                    message=(f"suppression of [{named}] has no "
                             f"'-- <why>' justification; record the "
                             f"reason the contract is waived here"))
