"""The RF rule family as repro-lint's command line lists it. RF001's
findings are covered by test_lint.py."""

from repro.lint.cli import main as lint_main


class TestCli:
    def test_list_rules_includes_flow_family(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        codes = [line.split()[0]
                 for line in capsys.readouterr().out.splitlines()]
        assert [code for code in codes if code.startswith("RF")] == ["RF001"]
