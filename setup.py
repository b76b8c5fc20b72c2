"""Legacy setup shim (the environment's setuptools lacks PEP 517 wheel
support, so ``pip install -e . --no-use-pep517`` goes through this)."""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "Reproduction of PUBS (MICRO 2018): prioritizing the issue of "
        "instructions in unconfident branch slices"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.9",
    install_requires=["numpy"],
    entry_points={"console_scripts": ["repro = repro.cli:main"]},
)
