import pytest
from hypothesis import HealthCheck, settings

from linkquery import fetch

settings.register_profile(
    "default",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")


@pytest.fixture(autouse=True)
def cold_parses():
    """Every test starts with no parse cached and an empty IRI table, which the whole process shares."""
    fetch.forget_parses()


@pytest.fixture
def write_web(tmp_path):
    """Write a tiny web from {iri: ntriples-text-or-directive} into tmp_path.

    Values starting with '!' are raw manifest directives (e.g. '!STATUS 500'),
    anything else becomes a FILE document with that content.
    """

    def _write(mapping, name="web"):
        web = tmp_path / name
        web.mkdir(parents=True, exist_ok=True)
        lines = []
        for n, (iri, content) in enumerate(mapping.items()):
            if content.startswith("!"):
                lines.append(f"{iri}\t{content[1:]}")
            else:
                rel = f"doc{n:03d}.nt"
                (web / rel).write_text(content, encoding="utf-8")
                lines.append(f"{iri}\tFILE {rel}")
        (web / "manifest.tsv").write_text("\n".join(lines) + "\n", encoding="utf-8")
        return web / "manifest.tsv"

    return _write
