"""``python -m morseflow ...`` runs the ``morseflow`` command."""
import sys
from .cli import main

sys.exit(main())
