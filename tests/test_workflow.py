"""The CI workflow's command-line steps run here as they run on a CI host.

Each `run:` step of the `tier1` job in .github/workflows/tests.yml, except
Install and the tier-1 tests themselves, runs under bash -eo pipefail (the
shell GitHub gives a step), with a `velosense` shim that calls
`python -m velosense.cli` first on PATH. The steps are read with a small
reader of the workflow's own layout, not a YAML library.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"
SKIPPED = ("Install", "Tier-1 tests")


def _indent(line: str) -> int:
    return len(line) - len(line.lstrip(" ")) if line.strip() else -1


def job_steps(text: str, job: str) -> list[tuple[str, str]]:
    """(name, script) of every `run:` step of a job, in order. A script is
    a one-line `run: command` or a `run: |` block, whose lines lose the
    block's indent; a step without a name is named by its script."""
    lines = text.splitlines()
    start = lines.index(f"  {job}:") + 1
    end = next((i for i in range(start, len(lines)) if _indent(lines[i]) == 2), len(lines))  # the next job
    steps, name, i = [], None, start
    while i < end:
        line = lines[i]
        key = line.strip().removeprefix("- ")
        if line.lstrip().startswith("- "):
            name = None
        if key.startswith("name: "):
            name = key.removeprefix("name: ")
        if key.startswith("run: "):
            script = key.removeprefix("run: ")
            if script == "|":
                indent = _indent(lines[i + 1])
                body = []
                while i + 1 < end and (not lines[i + 1].strip() or lines[i + 1].startswith(" " * indent)):
                    i += 1
                    body.append(lines[i][indent:])
                script = "\n".join(body).rstrip("\n") + "\n"
            steps.append((name or script, script))
        i += 1
    return steps


def run_step(script: str, tmp_path: Path) -> subprocess.CompletedProcess:
    """Run a step's script as GitHub does, with `velosense` and `python`
    resolving to this interpreter and its source tree, in tmp_path."""
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir(exist_ok=True)
    shim = bin_dir / "velosense"
    shim.write_text(f'#!/bin/sh\nexec "{sys.executable}" -m velosense.cli "$@"\n')
    shim.chmod(0o755)
    if not (bin_dir / "python").exists():
        (bin_dir / "python").symlink_to(sys.executable)
    script_path = tmp_path / "step.sh"
    script_path.write_text(script)
    env = dict(os.environ, PATH=f"{bin_dir}{os.pathsep}{os.environ.get('PATH', '')}", TMPDIR=str(tmp_path))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        ["bash", "--noprofile", "--norc", "-eo", "pipefail", str(script_path)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
    )


CLI_STEPS = [step for step in job_steps(WORKFLOW.read_text(), "tier1") if step[0] not in SKIPPED]


def test_seven_cli_steps_are_found():
    """A step that the reader stops finding would drop out of this file unseen."""
    names = [name for name, _script in job_steps(WORKFLOW.read_text(), "tier1")]
    assert names[0] == "Install" and names[-1] == "Tier-1 tests"
    assert len(CLI_STEPS) == 7
    assert all(name.endswith("entry point") for name, _script in CLI_STEPS)


def _step_id(name: str) -> str:
    return name.removesuffix(" through the installed entry point").lower().replace(" ", "-")


@pytest.mark.parametrize("name, script", CLI_STEPS, ids=[_step_id(name) for name, _script in CLI_STEPS])
def test_cli_step_passes(tmp_path, name, script):
    proc = run_step(script, tmp_path)
    assert proc.returncode == 0, f"{name}\n{proc.stdout}\n{proc.stderr}"


@pytest.mark.parametrize(
    "script",
    [
        'printf a > "$TMPDIR/a"\nprintf b > "$TMPDIR/b"\ncmp "$TMPDIR/a" "$TMPDIR/b"\necho unreachable\n',
        "false | true\n",
        "velosense score --delta 1\n",
    ],
    ids=["cmp-of-two-different-files", "pipefail", "cli-error"],
)
def test_a_failing_step_fails(tmp_path, script):
    proc = run_step(script, tmp_path)
    assert proc.returncode != 0
    assert "unreachable" not in proc.stdout


def test_reader_takes_one_line_and_block_steps():
    text = (
        "jobs:\n"
        "  first:\n"
        "    steps:\n"
        "      - uses: actions/checkout@v4\n"
        "      - name: One line\n"
        "        run: echo one\n"
        "      - name: Block\n"
        "        run: |\n"
        "          a=1\n"
        "\n"
        "          python - <<'EOF'\n"
        "            print(1)\n"
        "          EOF\n"
        "      - run: echo unnamed\n"
        "  second:\n"
        "    steps:\n"
        "      - run: echo other\n"
    )
    assert job_steps(text, "first") == [
        ("One line", "echo one"),
        ("Block", "a=1\n\npython - <<'EOF'\n  print(1)\nEOF\n"),
        ("echo unnamed", "echo unnamed"),
    ]
    assert job_steps(text, "second") == [("echo other", "echo other")]
