"""Attacker models.

Every experiment needs a red team.  This package provides:

- :mod:`repro.attacks.attacker` -- an attacker host with request/response
  correlation (it can log in, keep sessions, and chain actions).
- :mod:`repro.attacks.exploits` -- one exploit primitive per Table 1 flaw
  class (default credentials, exposed access, embedded keys, no-credential
  control, open DNS resolver reflection, vendor backdoor) plus brute force.

Multi-stage campaigns are declarative data run by
:class:`repro.faults.campaign.CampaignRunner`.  The paper's narrative
attacks -- the Fig. 3 fire-alarm/window break-in, the section 2.1
smart-plug -> temperature -> window breach and Fig. 5's oven arson -- are
:data:`repro.faults.campaign_library.PAPER_CAMPAIGNS`.
"""

from repro.attacks.attacker import Attacker
from repro.attacks.exploits import EXPLOITS, Exploit, ExploitResult

__all__ = ["Attacker", "EXPLOITS", "Exploit", "ExploitResult"]
