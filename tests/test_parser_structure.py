"""The CLI's argument tree, pinned option by option.

Every parser of ``build_parser()`` is recorded with its subcommands (name
and help, in order), its ``set_defaults`` handler and, for each action,
the fields that decide what it accepts and what ``--help`` prints.  The
record holds no text that argparse itself words, so it is the same on every
supported interpreter.  tests/fixtures/parser_structure.json holds the
expected tree.  Regenerate it only for a documented change of the CLI:

    PYTHONPATH=src:tests python -c "import test_parser_structure as t; t.write_fixture()"
"""

import argparse
import json
from pathlib import Path

from deltasvp.cli import build_parser

FIXTURE = Path(__file__).parent / "fixtures" / "parser_structure.json"


def _action(action: argparse.Action) -> dict:
    record = {
        "option_strings": action.option_strings,
        "dest": action.dest,
        "required": action.required,
        "default": action.default,
        "type": None if action.type is None else action.type.__name__,
        "nargs": action.nargs,
        "const": action.const,
        # the -h action's help is argparse's own text, not this CLI's
        "help": None if isinstance(action, argparse._HelpAction) else action.help,
    }
    if isinstance(action, argparse._SubParsersAction):
        helps = {choice.dest: choice.help for choice in action._choices_actions}
        record["subcommands"] = [
            {"name": name, "help": helps[name], "parser": structure(sub)}
            for name, sub in action.choices.items()
        ]
    return record


def structure(parser: argparse.ArgumentParser) -> dict:
    return {
        "description": parser.description,
        "defaults": {key: value.__name__ for key, value in parser._defaults.items()},
        "actions": [_action(action) for action in parser._actions],
    }


def write_fixture() -> None:
    FIXTURE.write_text(json.dumps(structure(build_parser()), indent=1) + "\n")


def test_parser_matches_the_pinned_tree():
    assert structure(build_parser()) == json.loads(FIXTURE.read_text())


def test_every_subcommand_is_pinned():
    """The fixture reaches all 15 subcommands, each with one handler."""
    tree = json.loads(FIXTURE.read_text())
    (top,) = [a for a in tree["actions"] if "subcommands" in a]
    leaves = [
        (group["name"], leaf["name"], leaf["parser"]["defaults"]["func"])
        for group in top["subcommands"]
        for action in group["parser"]["actions"]
        for leaf in action.get("subcommands", [])
    ]
    assert len(leaves) == 15
    assert len({func for _, _, func in leaves}) == 15
