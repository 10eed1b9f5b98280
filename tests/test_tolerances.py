import pathlib
import re

from qdlab import tolerances

SRC = pathlib.Path(tolerances.__file__).parent


def test_every_tolerance_is_read_in_the_package():
    """A name in the table that no gate reads tunes nothing."""
    code = "".join(p.read_text() for p in SRC.glob("*.py") if p.name != "tolerances.py")
    names = [name for name in vars(tolerances) if name.isupper()]
    assert names
    unread = [name for name in names if not re.search(rf"\btolerances\.{name}\b", code)]
    assert unread == []
