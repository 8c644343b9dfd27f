"""Session-wide test settings: every hypothesis property runs derandomized
(the same examples on every run) and keeps no example database."""

from hypothesis import settings

settings.register_profile("derandomized", derandomize=True, database=None)
settings.load_profile("derandomized")
