"""Log phrase templating.

* :mod:`.masking` — volatile-field masking (message → template text)
* :mod:`.store` — template registry + generated anchored scanners
* :mod:`.drain` — Drain fixed-depth-tree online log parser (baseline)
* :mod:`.spell` — Spell LCS-based streaming log parser (baseline)
"""

from ..lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "drain": ("DrainGroup", "DrainParser"),
    "masking": ("MASK", "make_masker", "mask_message", "template_tokens"),
    "spell": ("LCSObject", "SpellParser", "lcs_length", "lcs_sequence"),
    "store": ("NaiveTemplateScanner", "Template", "TemplateScanner",
              "TemplateStore", "template_to_pattern"),
})
