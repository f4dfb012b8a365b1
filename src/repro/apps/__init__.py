"""Miniature reproductions of the paper's evaluation applications.

Import the one you serve from its own module (``repro.apps.hotcrp``,
``repro.apps.phpbb``, ...): the package imports none of them, so serving
one application does not load the others.
"""
