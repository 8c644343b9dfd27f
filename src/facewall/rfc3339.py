"""Strict RFC 3339 timestamp parsing and UTC-normalized serialization.

Timestamps without an explicit UTC offset are rejected outright: guessing a
local zone silently shifts posts across calendar-bucket boundaries.
"""

from __future__ import annotations

import re
from datetime import datetime, timedelta, timezone

_TIMESTAMP_RE = re.compile(
    r"""^(\d{4})-(\d{2})-(\d{2})
        [Tt\ ]
        (\d{2}):(\d{2}):(\d{2})
        (?:\.(\d+))?
        (?:([Zz])|([+-])(\d{2}):(\d{2}))$""",
    # \d is 0-9 only, as RFC 3339's DIGIT is; it takes any Unicode digit
    # otherwise, which int() would read
    re.VERBOSE | re.ASCII,
)

# The text format_rfc3339 writes for a whole-second instant.
_CANONICAL_RE = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}T[0-9]{2}:[0-9]{2}:[0-9]{2}Z")


def parse_rfc3339(text: str) -> datetime:
    """Parse an RFC 3339 timestamp into a timezone-aware UTC datetime.

    Raises ValueError for anything else, including timestamps that omit the
    offset entirely.
    """
    if not isinstance(text, str):
        raise ValueError("timestamp must be a string")
    if _CANONICAL_RE.fullmatch(text) is not None:
        # already UTC: no offset arithmetic, no conversion
        return datetime.fromisoformat(text[:19] + "+00:00")
    m = _TIMESTAMP_RE.match(text.strip())
    if m is None:
        raise ValueError(f"not an RFC 3339 timestamp: {text!r}")
    *fields, frac, zulu, sign, hours, minutes = m.groups()
    year, month, day, hour, minute, second = map(int, fields)
    micro = int(frac[:6].ljust(6, "0")) if frac else 0
    if zulu:
        tz = timezone.utc
    else:
        offset = timedelta(hours=int(hours), minutes=int(minutes))
        tz = timezone(offset if sign == "+" else -offset)
    stamp = datetime(year, month, day, hour, minute, second, micro, tzinfo=tz)
    try:
        return stamp.astimezone(timezone.utc)
    except OverflowError:  # an offset that moves the instant past year 1 or 9999
        raise ValueError(f"instant out of range: {text!r}") from None


def format_rfc3339(stamp: datetime) -> str:
    """Serialize an aware datetime as canonical RFC 3339 UTC text.

    Round-trips through parse_rfc3339 unchanged. Microseconds appear only
    when non-zero.
    """
    if stamp.tzinfo is None:
        raise ValueError("naive datetime cannot be serialized")
    return stamp.astimezone(timezone.utc).isoformat().replace("+00:00", "Z")


def canonical_text(text: str, stamp: datetime) -> str:
    """format_rfc3339(stamp) for stamp = parse_rfc3339(text): text itself
    when it is already canonical."""
    if _CANONICAL_RE.fullmatch(text) is not None:
        return text
    return format_rfc3339(stamp)
