"""Reference parser for the schedule-script text format.

This is ``harness.parse_script`` as it was before the ops and schedule
lines were checked with one whole-line match each: it finds every token
with ``findall`` and accepts the line only when the tokens, joined back,
spell the line with its spaces removed.  The differential test in
``test_harness.py`` holds the current parser to the same accepted texts,
the same parsed scripts and the same error messages.
"""

import re

from cobst.harness import ScheduleScript, ScriptError

_OP_RE = re.compile(r"(insert|delete|contains)\((-?\d+)\)")
_STEP_RE = re.compile(r"(\d+):(\d+)")
_THREAD_RE = re.compile(r"thread\s+(-?\d+)")


def reference_parse_script(text: str) -> ScheduleScript:
    script = ScheduleScript()
    seen = set()
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head, _, rest = line.partition(":")
        head = head.strip()
        rest = rest.strip()
        thread = _THREAD_RE.fullmatch(head)
        if thread:
            tid = int(thread.group(1))
            head = "thread %d" % tid
        elif head.startswith("thread"):
            raise ScriptError("line %d: expected 'thread <id>:'" % ln)
        if head in seen:
            raise ScriptError("line %d: repeated directive %r" % (ln, head))
        seen.add(head)
        if head == "setup":
            try:
                script.setup = [int(t) for t in rest.split()]
            except ValueError:
                raise ScriptError("line %d: setup keys must be integers" % ln) from None
        elif thread:
            ops = _OP_RE.findall(rest)
            joined = " ".join("%s(%s)" % p for p in ops)
            if not ops or joined.replace(" ", "") != rest.replace(" ", ""):
                raise ScriptError("line %d: cannot parse ops %r" % (ln, rest))
            script.programs[tid] = [(op, int(k)) for op, k in ops]
        elif head == "schedule":
            steps = _STEP_RE.findall(rest)
            joined = " ".join("%s:%s" % s for s in steps)
            if joined.replace(" ", "") != rest.replace(" ", ""):
                raise ScriptError("line %d: cannot parse schedule %r" % (ln, rest))
            script.steps = [(int(t), int(n)) for t, n in steps]
        else:
            raise ScriptError("line %d: unknown directive %r" % (ln, head))
    script.validate()
    return script
