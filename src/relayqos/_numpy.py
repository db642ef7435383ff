"""numpy, imported on first use: only the simulator needs it, so only
``validate`` loads it."""


class _LazyNumpy:
    def __getattr__(self, name):
        import numpy
        value = getattr(numpy, name)
        setattr(self, name, value)  # later lookups bypass this method
        return value


np = _LazyNumpy()
