"""slotq: a workbench for deadline packet scheduling in a size-B buffer.

`import slotq` loads no layer: import each one as a submodule, such as
`slotq.model` or `from slotq import oracle`.  README's "Package" section
gives each layer's contract, and each module's docstring its argument.
"""

__version__ = "0.1.0"
