import genbenford
from genbenford import digits, distributions, fitting, reference, sampling, sequences

MODULES = (digits, distributions, fitting, reference, sampling, sequences)


def test_package_exports_each_modules_public_names():
    expected = [name for module in MODULES for name in module.__all__]
    assert genbenford.__all__ == expected + ["__version__"]
    assert len(set(genbenford.__all__)) == len(genbenford.__all__)
    for module in MODULES:
        for name in module.__all__:
            assert getattr(genbenford, name) is getattr(module, name)
    assert isinstance(genbenford.__version__, str)
