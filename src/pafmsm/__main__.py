"""``python -m pafmsm``: the ``paf-msm`` command line."""

from .cli import main

main()
