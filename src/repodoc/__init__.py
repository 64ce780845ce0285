"""repodoc: repository-level documentation generation.

Parses a Python repository into a project tree plus a caller/callee
reference graph, generates structured docs for every class and function
bottom-to-top through an LLM gateway, publishes a GitBook-style Markdown
tree, and keeps everything current from Git staged changes via a
pre-commit hook. The API lives in the submodules, such as
``repodoc.doc_pipeline``; the package itself re-exports nothing.
"""

__version__ = "0.1.0"
