"""Mirai botnet emulation.

Reproduces the full lifecycle the paper inherits from DDoSim's use of the
real Mirai malware:

1. **Scan** — :class:`~repro.botnet.scanner.MiraiScanner` probes the
   subnet for telnet (port 23) and brute-forces the Mirai credential
   dictionary against :class:`~repro.botnet.telnet.VulnerableTelnet`
   services on the Devs.
2. **Load** — :class:`~repro.botnet.loader.Loader` logs in with the found
   credentials, pushes the bot binary over the telnet session, and
   triggers infection (the device container ``exec``-s a bot process).
3. **Control** — :class:`~repro.botnet.bot.MiraiBot` registers with the
   :class:`~repro.botnet.cnc.CncServer` and keeps the channel alive.
4. **Attack** — on command, bots run the SYN/ACK/UDP flood modules in
   :mod:`repro.botnet.attacks` against the TServer.

All botnet-originated packets carry malicious provenance, which is how
captures acquire ground-truth labels.
"""

from repro.botnet.attacks import AckFlood, AttackModule, SynFlood, UdpFlood, make_attack
from repro.botnet.bot import MiraiBot
from repro.botnet.cnc import CncServer
from repro.botnet.credentials import MIRAI_CREDENTIALS
from repro.botnet.loader import Loader
from repro.botnet.scanner import MiraiScanner
from repro.botnet.telnet import VulnerableTelnet

__all__ = [
    "AckFlood",
    "AttackModule",
    "CncServer",
    "Loader",
    "MIRAI_CREDENTIALS",
    "MiraiBot",
    "MiraiScanner",
    "SynFlood",
    "UdpFlood",
    "VulnerableTelnet",
    "make_attack",
]
