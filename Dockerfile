# HTTP front door image: `docker run -p 8000:8000 <image>` serves the
# batch JSON endpoints (see docs/OPERATIONS.md) on port 8000 with both
# persistence layers on the /data volume — the durable index snapshot
# under /data/index and the SQLite runtime store at /data/runtime.db —
# so the index and accepted writes survive a container restart.
FROM python:3.12-slim

# numpy is the project's only runtime dependency (pyproject.toml).
RUN pip install --no-cache-dir numpy

WORKDIR /app
COPY pyproject.toml README.md ./
COPY src ./src

ENV PYTHONPATH=/app/src \
    PYTHONUNBUFFERED=1

RUN mkdir /data
VOLUME /data
EXPOSE 8000

ENTRYPOINT ["python", "-m", "repro"]
CMD ["serve", "--host", "0.0.0.0", "--port", "8000", \
     "--store", "/data/runtime.db", \
     "--data-dir", "/data/index"]
