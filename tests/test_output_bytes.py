"""``tools/output_bytes.py`` writes the byte-comparison set: every command
runs, into its own folder, and exits with the code the benchmark expects."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "output_bytes.py"


def test_the_tool_writes_every_output_with_its_expected_exit_code(tmp_path):
    spec = importlib.util.spec_from_file_location("output_bytes", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    assert tool.write_all(tmp_path)
    assert (tmp_path / "study-8q-timed" / "invert.json").exists()
    assert len(list((tmp_path / "appendix-b-8-40").glob("*.csv"))) == 6
    codes = (tmp_path / "exit_codes.txt").read_text().splitlines()
    assert len(codes) == sum(len(c) for c in tool.runs(tmp_path).values()) == 16
