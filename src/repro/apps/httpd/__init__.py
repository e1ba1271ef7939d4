"""The mini Apache case-study application.

Its parts are the configuration file (:mod:`repro.apps.httpd.config`), the
HTTP codec (:mod:`repro.apps.httpd.http`), the planted vulnerability
(:mod:`repro.apps.httpd.vulnerable`) and the server on the shared skeleton
(:mod:`repro.apps.httpd.server`).  The skeleton in :mod:`repro.apps.server`
imports the vulnerable module, and the server module builds on the
skeleton, so this package imports none of its modules.
"""
