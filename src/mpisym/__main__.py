"""`python -m mpisym`: the command line, as the installed `mpisym` script."""
from .cli import main
raise SystemExit(main())
