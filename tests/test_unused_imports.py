"""tools/unused_imports.py: which module-level imports count as used."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "unused_imports.py"
spec = importlib.util.spec_from_file_location("unused_imports", TOOL)
unused_imports = importlib.util.module_from_spec(spec)
spec.loader.exec_module(unused_imports)


def test_unused_imports_reads_code_quoted_annotations_and_all(tmp_path):
    module = tmp_path / "mod.py"
    module.write_text(
        "from __future__ import annotations\n"
        "import os.path\n"
        "import numpy as np\n"
        "from typing import Optional, Sequence\n"
        "from math import pi, tau\n"
        "__all__ = ['tau']\n"
        "def f(x: 'Optional[int]') -> int:\n"
        "    return os.path.sep * x\n"
    )
    assert unused_imports.unused_imports(module) == [("np", 3), ("Sequence", 4), ("pi", 5)]
    assert unused_imports.main([str(tmp_path)]) == 1
    module.write_text("import os\nprint(os)\n")
    assert unused_imports.main([str(tmp_path)]) == 0


def test_unused_imports_keeps_only_the_listed_name_in_the_listed_file(tmp_path):
    source = "from hqmaps.star import SampledCircle, StarFunction\n"
    (tmp_path / "test_acceptance.py").write_text(source)
    (tmp_path / "other.py").write_text(source)
    assert unused_imports.unused_imports(tmp_path / "test_acceptance.py") == [("StarFunction", 1)]
    assert unused_imports.unused_imports(tmp_path / "other.py") == [
        ("SampledCircle", 1), ("StarFunction", 1)
    ]
