import json
import subprocess
import sys

import apreval
from apreval.pipeline import _adapter_env


class TestLazyPackage:
    def test_stub_import_loads_only_stubs(self):
        probe = (
            "import apreval.stubs, json, sys; "
            "print(json.dumps({'numpy': 'numpy' in sys.modules, "
            "'apreval': sorted(m for m in sys.modules if m.startswith('apreval.'))}))"
        )
        out = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True, env=_adapter_env(), check=True
        )
        loaded = json.loads(out.stdout)
        assert loaded == {"numpy": False, "apreval": ["apreval.stubs"]}

    def test_every_public_name_resolves(self):
        assert len(apreval.__all__) == len(set(apreval.__all__)) == 44
        listed = dir(apreval)
        for name in apreval.__all__:
            assert getattr(apreval, name) is not None, name
            assert name in listed, name

    def test_unknown_name_is_attribute_error(self):
        assert not hasattr(apreval, "no_such_name")
