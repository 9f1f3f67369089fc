"""The executor's hot loop (see :mod:`repro.kernels.interp`)."""
